package store

import (
	"fmt"
	"sort"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/simjoin"
	"github.com/crowder/crowder/internal/verdicts"
)

// replayState is the session state one generation on disk replays into.
// Open builds one to hand the engine its recovered state; compaction
// builds one to serialize as the next snapshot. Neither keeps it.
type replayState struct {
	meta       Meta
	hasMeta    bool
	rows       []Row
	boundaries []int // absorb boundaries, strictly increasing
	pending    []simjoin.ScoredPair
	cache      *verdicts.Cache
	// q is the queue backend's state, nil until the first queue event;
	// collected holds the completed assignments of its live HITs, which
	// the live queue has already streamed out (QueueSnapshot.Collected).
	q         *crowd.QueueState
	collected map[int][]crowd.Assignment
	events    int
}

func newReplayState() *replayState {
	return &replayState{cache: verdicts.NewCache()}
}

// apply folds one event into the state.
func (st *replayState) apply(ev Event) error {
	st.events++
	switch e := ev.(type) {
	case *Meta:
		if e.Schema != nil {
			st.meta.Schema = e.Schema
		}
		if e.Aggregator != "" {
			st.meta.Aggregator = e.Aggregator
		}
		if e.Config != nil {
			st.meta.Config = e.Config
		}
		if e.Spent != 0 {
			st.meta.Spent = e.Spent
		}
		if e.Model != nil {
			st.meta.Model = e.Model
		}
		st.hasMeta = true
	case *Append:
		st.rows = append(st.rows, e.Rows...)
	case *Prune:
		last := 0
		if len(st.boundaries) > 0 {
			last = st.boundaries[len(st.boundaries)-1]
		}
		if e.Absorbed > last {
			st.boundaries = append(st.boundaries, e.Absorbed)
		}
		st.pending = append(st.pending, e.Discovered...)
	case *Windows:
		for _, w := range e.W {
			st.cache.Apply(w)
		}
		if e.ClearPending {
			st.pending = nil
		}
	case *Commit:
		if e.replay(st.cache) {
			st.pending = nil
		}
	case *Pending:
		st.pending = append(st.pending[:0], e.Scored...)
	case *CacheState:
		st.cache = verdicts.RestoreCache(e.Entries, e.Partials)
	case *QueuePosted:
		st.queue().Posted(e.HITs, e.At)
	case *QueueClaimed:
		st.queue().Claimed(e.Token, e.HIT, e.Worker, e.At, e.Deadline)
	case *QueueAnswered:
		st.queue().Answered(e.Token, e.HIT, e.Worker, e.A, e.Late)
		st.collected[e.HIT] = append(st.collected[e.HIT], e.A)
	case *QueueExpired:
		st.queue().Expired(e.Claims)
	case *QueueRetracted:
		st.queue().Retracted(e.IDs)
		for _, id := range e.IDs {
			delete(st.collected, id)
		}
	case *QueueState:
		st.q = crowd.NewQueueState(&e.S)
		st.collected = make(map[int][]crowd.Assignment, len(e.S.Collected))
		for id, as := range e.S.Collected {
			st.collected[id] = append([]crowd.Assignment(nil), as...)
		}
	default:
		return fmt.Errorf("store: replay: unhandled event %T", ev)
	}
	return nil
}

// queue returns the queue state, creating it on the session's first
// queue event.
func (st *replayState) queue() *crowd.QueueState {
	if st.q == nil {
		st.q = crowd.NewQueueState(nil)
		st.collected = make(map[int][]crowd.Assignment)
	}
	return st.q
}

// queueSnapshot renders the queue state with the collected assignments
// merged in, each HIT's sorted by slot.
func (st *replayState) queueSnapshot() *crowd.QueueSnapshot {
	s := st.q.Snapshot()
	s.Collected = make(map[int][]crowd.Assignment, len(st.collected))
	for id, as := range st.collected {
		cp := append([]crowd.Assignment(nil), as...)
		sort.Slice(cp, func(i, j int) bool { return cp[i].Slot < cp[j].Slot })
		s.Collected[id] = cp
	}
	return s
}

// snapshotEvents serializes the state as a compacted event stream —
// replaying it reproduces the state exactly.
func (st *replayState) snapshotEvents() []Event {
	var evs []Event
	if st.hasMeta {
		m := st.meta
		evs = append(evs, &m)
	}
	// Chunk rows so no single frame grows unboundedly with table size.
	const rowChunk = 4096
	for lo := 0; lo < len(st.rows); lo += rowChunk {
		hi := lo + rowChunk
		if hi > len(st.rows) {
			hi = len(st.rows)
		}
		evs = append(evs, &Append{Rows: st.rows[lo:hi]})
	}
	for _, b := range st.boundaries {
		evs = append(evs, &Prune{Absorbed: b})
	}
	if len(st.pending) > 0 {
		evs = append(evs, &Pending{Scored: st.pending})
	}
	if st.cache.Len() > 0 || st.cache.PartialLen() > 0 {
		entries, partials := st.cache.Dump()
		evs = append(evs, &CacheState{Entries: entries, Partials: partials})
	}
	if st.q != nil {
		evs = append(evs, &QueueState{S: *st.queueSnapshot()})
	}
	return evs
}

// Recovered is everything a session needs to resume after a restart.
type Recovered struct {
	// Meta is the merged session identity (schema, aggregator, config),
	// the latest spend total and the latest journaled router model.
	Meta Meta
	// Rows are the appended records in order.
	Rows []Row
	// Boundaries are the similarity-index absorb points, in order.
	Boundaries []int
	// Pending are the candidate pairs awaiting crowdsourcing.
	Pending []simjoin.ScoredPair
	// Cache is the verdict cache — paid answers, provenance, deduction
	// proofs, machine verdicts, partial fragments, plus the in-flight
	// answers of the crashed run folded in as partials. Its aggregated
	// and deduced posteriors are not authoritative (see CacheState).
	Cache *verdicts.Cache
	// Queue is the queue backend's state, or nil if the session never
	// posted to a queue.
	Queue *crowd.QueueSnapshot
	// Resume carries the crashed run's in-flight HITs for adoption by the
	// restarted resolve; nil when nothing was in flight.
	Resume *crowd.ResumeState
	// Events is the number of events replayed (snapshot + WAL tail).
	Events int
	// WALBytes and SnapshotBytes report what recovery read.
	WALBytes      int64
	SnapshotBytes int64
}

// Empty reports a fresh session (no logged state at all).
func (r *Recovered) Empty() bool {
	return r == nil || (!r.hasState() && r.Events == 0)
}

func (r *Recovered) hasState() bool {
	return len(r.Rows) > 0 || r.Cache.Len() > 0 || r.Cache.PartialLen() > 0 ||
		len(r.Pending) > 0 || r.Queue != nil || len(r.Meta.Schema) > 0
}

// recovered builds the engine-facing view. It consumes the state: rows,
// boundaries, pending and the cache are handed over, not copied.
func (st *replayState) recovered() *Recovered {
	rec := &Recovered{
		Meta:       st.meta,
		Rows:       st.rows,
		Boundaries: st.boundaries,
		Pending:    st.pending,
		Cache:      st.cache,
		Events:     st.events,
	}
	if st.q != nil {
		rec.Queue = st.queueSnapshot()
		// In-flight HITs of the crashed run: content-indexed for adoption,
		// and their paid answers recorded as partial fragments so the work
		// is never invisible — the restarted run's completions supersede
		// them through the normal commit path.
		rs := &crowd.ResumeState{}
		var inflight []aggregate.Answer
		for i, id := range rec.Queue.Order {
			h := rec.Queue.HITs[i]
			if h.ID != id {
				continue // a snapshot naming an ID it holds no HIT for
			}
			slots := append([]crowd.Assignment(nil), rec.Queue.Collected[id]...)
			rs.Add(h, slots)
			for _, a := range slots {
				inflight = append(inflight, a.Answers...)
			}
		}
		if !rs.Empty() {
			rec.Resume = rs
		}
		if len(inflight) > 0 {
			rec.Cache.Apply(verdicts.Window{Partial: inflight})
		}
	}
	return rec
}
