package crowd

import (
	"context"
	"sync"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/record"
)

// HITKind distinguishes the two task formats a backend can host.
type HITKind int

const (
	// PairKind is a pair-based HIT: each listed pair is verified
	// independently by the worker.
	PairKind HITKind = iota
	// ClusterKind is a cluster-based HIT: the worker partitions the
	// listed records into entities; the verdicts cover the listed pairs.
	ClusterKind
)

// HIT is one crowdsourcing task as posted to a Backend.
type HIT struct {
	// ID identifies the HIT across the backend: assignments carry it back
	// so the lifecycle manager can correlate answers with tasks. IDs are
	// unique across every run sharing a backend (a requeued or retried
	// resolution never collides with tasks left over from a cancelled one).
	ID int
	// Ord is the HIT's ordinal within its run (0-based, dense). The
	// simulated backend derives its per-HIT RNG stream from Ord, so a
	// run's randomness is independent of how many runs preceded it.
	Ord int
	// Kind selects the task format.
	Kind HITKind
	// Pairs lists the pairs the HIT verifies. For PairKind these are the
	// task itself; for ClusterKind they are the candidate pairs covered by
	// the record group (both endpoints in Records).
	Pairs []record.Pair
	// Records lists the records shown to the worker (ClusterKind only).
	Records []record.ID
	// Likelihoods, when set, holds each listed pair's machine likelihood,
	// in Pairs' order: the simulator derives a pair's difficulty from it
	// (DifficultyFromLikelihood's rule) instead of asking its Config. It
	// is the poster's annotation, never journaled.
	Likelihoods []float64 `json:"-"`
	// Assignments is the number of replicated assignments requested by
	// this Post. The initial posting asks for the full replication factor;
	// top-ups for expired assignments re-post the same HIT with 1.
	Assignments int
}

// Assignment is one worker's completed (or expired) assignment of one HIT,
// delivered on a Backend's Collect stream.
type Assignment struct {
	// HIT is the ID of the task this assignment belongs to.
	HIT int
	// Slot is the assignment's replication slot within its HIT. The
	// lifecycle manager assembles a HIT's answers in slot order, so the
	// final layout is independent of the order assignments arrived in —
	// the property that keeps simulated runs bit-identical to the
	// synchronous executor they replaced.
	Slot int
	// Worker identifies the worker who completed the assignment, where a
	// single worker did (cluster tasks, queue-backend tasks). -1 when the
	// assignment aggregates per-pair workers (the simulator's pair-based
	// tasks replicate each pair to its own worker set).
	Worker int
	// Answers holds the per-pair verdicts, ordered like the HIT's Pairs.
	Answers []aggregate.Answer
	// Seconds is the assignment's completion time: simulated seconds under
	// the reference backend's virtual clock, wall-clock seconds from claim
	// to answer under the queue backend.
	Seconds float64
	// Expired marks a lease that lapsed before the worker answered; the
	// assignment carries no answers and the lifecycle manager responds by
	// posting a replication top-up.
	Expired bool
}

// Backend hosts HITs and streams back assignments as workers complete
// them. The reference implementation is the simulator (NewSimulator),
// which replays the Section 7.1 worker model on a virtual clock; the
// queue backend (NewQueue) holds HITs open for external workers to claim
// and answer, e.g. over the crowderd HTTP API.
//
// Post may be called repeatedly — the lifecycle manager posts top-ups for
// expired assignments — and must be safe to call while Collect is being
// consumed. Collect supports a single consumer per backend; the returned
// channel delivers assignments until ctx is cancelled.
type Backend interface {
	Post(ctx context.Context, hits []HIT) error
	Collect(ctx context.Context) <-chan Assignment
}

// Scheduler is an optional Backend refinement: backends that model worker
// scheduling (the simulator's attraction-scaled makespan) report the
// batch completion time from the per-assignment durations. Backends
// without a model fall back to the maximum assignment duration.
type Scheduler interface {
	TotalSeconds(assignmentSeconds []float64) float64
}

// Retractor is an optional Backend refinement: backends holding tasks
// open for external workers withdraw a run's HITs when the run ends
// (completion, cancellation, failure) so neither stale open tasks nor
// finished-task bookkeeping accumulate across runs. The simulator has
// nothing to retract.
type Retractor interface {
	Retract(ids []int)
}

// stream is the delivery half shared by the built-in backends: an
// unbounded buffer of assignments pumped to a single consumer channel.
type stream struct {
	mu     sync.Mutex
	buf    []Assignment
	notify chan struct{}
}

func newStream() *stream {
	return &stream{notify: make(chan struct{}, 1)}
}

// push appends assignments for delivery and wakes the pump.
func (s *stream) push(as ...Assignment) {
	if len(as) == 0 {
		return
	}
	s.mu.Lock()
	s.buf = append(s.buf, as...)
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// channel starts the pump goroutine delivering buffered assignments in
// push order until ctx is cancelled. An assignment popped but not yet
// delivered when ctx fires is pushed back to the front of the buffer: a
// backend shared across runs (the queue, between a cancelled job and its
// retry) may briefly have an old run's pump alive alongside the new
// run's, and the stale pump must never swallow an assignment the live
// consumer is waiting for.
func (s *stream) channel(ctx context.Context) <-chan Assignment {
	out := make(chan Assignment)
	go func() {
		defer close(out)
		for {
			s.mu.Lock()
			var next Assignment
			have := len(s.buf) > 0
			if have {
				next = s.buf[0]
				// Clear the slot: the resliced buffer still pins its
				// backing array, and with it every delivered answer.
				s.buf[0] = Assignment{}
				s.buf = s.buf[1:]
			}
			s.mu.Unlock()
			if !have {
				select {
				case <-ctx.Done():
					return
				case <-s.notify:
					continue
				}
			}
			select {
			case <-ctx.Done():
				s.unpop(next)
				return
			case out <- next:
			}
		}
	}()
	return out
}

// unpop returns an undelivered assignment to the front of the buffer and
// wakes any other pump.
func (s *stream) unpop(a Assignment) {
	s.mu.Lock()
	s.buf = append([]Assignment{a}, s.buf...)
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// PairHITsFromGen converts generated pair-based HITs into backend tasks,
// assigning run-unique IDs and dense ordinals.
func PairHITsFromGen(pairs [][]record.Pair, assignments int) []HIT {
	hits := make([]HIT, len(pairs))
	base := nextHITID(len(pairs))
	for i, ps := range pairs {
		hits[i] = HIT{
			ID:          base + i,
			Ord:         i,
			Kind:        PairKind,
			Pairs:       ps,
			Assignments: assignments,
		}
	}
	return hits
}

// ClusterHITsFromGen converts generated cluster-based HITs into backend
// tasks. covered[i] must list the candidate pairs covered by records[i]
// in the order of the input pair list, as hitgen.Covers returns them:
// the simulator draws its RNG values pair by pair in that order, so a
// reordered cover changes the answers.
func ClusterHITsFromGen(records [][]record.ID, covered [][]record.Pair, assignments int) []HIT {
	hits := make([]HIT, len(records))
	base := nextHITID(len(records))
	for i := range records {
		hits[i] = HIT{
			ID:          base + i,
			Ord:         i,
			Kind:        ClusterKind,
			Pairs:       covered[i],
			Records:     records[i],
			Assignments: assignments,
		}
	}
	return hits
}

// OffsetOrds shifts the HITs' ordinals by base. An adaptive scheduler
// posting a delta's HITs over several rounds uses it to keep ordinals
// dense across the whole delta, so each round's cluster HITs draw from
// fresh RNG streams instead of replaying round one's.
func OffsetOrds(hits []HIT, base int) {
	for i := range hits {
		hits[i].Ord += base
	}
}

// hitIDCounter hands out globally unique HIT IDs so runs sharing a
// backend (e.g. a retried delta posting to the same queue) never collide.
var (
	hitIDMu      sync.Mutex
	hitIDCounter int
)

func nextHITID(n int) int {
	hitIDMu.Lock()
	defer hitIDMu.Unlock()
	base := hitIDCounter
	hitIDCounter += n
	return base
}
