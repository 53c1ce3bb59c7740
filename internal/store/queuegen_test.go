package store

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/record"
)

// TestQueueRecoveryGenerative drives a journaled queue through seeded
// random op sequences — posts, top-ups, claims, answers (valid, invalid
// and late), sweeps and retractions — and after every op recovers a copy
// of the log directory. The recovered snapshot must equal the live
// queue's (Collected aside), Collected and Resume must hold exactly the
// answered slots of the live HITs, and a queue restored from the previous op's recovery
// must take each op exactly as the live queue does.
func TestQueueRecoveryGenerative(t *testing.T) {
	var seen genCoverage
	for _, cb := range []int64{0, 1} {
		for seed := int64(1); seed <= 20; seed++ {
			t.Run(fmt.Sprintf("compact=%d/seed=%d", cb, seed), func(t *testing.T) {
				runQueueGen(t, seed, 40, Options{CompactBytes: cb}, &seen)
			})
		}
	}
	// The generator must actually reach the transitions it is for.
	if seen.answers == 0 || seen.late == 0 || seen.expired == 0 || seen.retracts == 0 || seen.compactions == 0 {
		t.Fatalf("generator coverage too thin: %+v", seen)
	}
}

type genCoverage struct{ answers, late, expired, retracts, compactions int }

// opResult is what an op returned to its caller: the part of the live
// queue's behaviour a restored twin must reproduce.
type opResult struct {
	Err    bool
	HIT    int // claimed HIT ID; -1 when nothing was claimable
	Waited time.Duration
	A      *crowd.Assignment // the answered assignment the stream delivered
}

// queueOp is one generated op, applied to the live queue and its twin.
type queueOp struct {
	name    string
	retract int // HIT ID the op retracts, or -1
	apply   func(t *testing.T, q *crowd.Queue, stream <-chan crowd.Assignment) opResult
}

// swapLog lets the test close and reopen the FileLog under a journal
// that stays wired into the live queue.
type swapLog struct{ fl *FileLog }

func (s *swapLog) Log(ev Event) error { return s.fl.Log(ev) }
func (s *swapLog) Close() error       { return s.fl.Close() }

func runQueueGen(t *testing.T, seed int64, ops int, opts Options, seen *genCoverage) {
	const lease = time.Minute
	dir, cp := t.TempDir(), filepath.Join(t.TempDir(), "copy")
	fl, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	log := &swapLog{fl: fl}
	defer func() { log.fl.Close() }()
	now := time.Unix(1_000_000, 0).UTC()
	clock := func() time.Time { return now }
	q := crowd.NewQueue(crowd.QueueOptions{Lease: lease, Now: clock, Journal: QueueJournal(log)})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream := q.Collect(ctx)

	g := &queueGen{rng: rand.New(rand.NewSource(seed)), known: map[string]bool{}}
	collected := map[int][]crowd.Assignment{}
	var rec *Recovered
	for i := 0; i < ops; i++ {
		now = now.Add(time.Duration(g.rng.Intn(20)) * time.Second)
		before := q.Snapshot()
		op := g.next(before, i == 0)
		if op.name == "sweep" {
			now = now.Add(lease + time.Second)
		}
		got := op.apply(t, q, stream)
		if op.name == "invalid answer" && !got.Err {
			t.Fatalf("op %d: an answer missing a verdict was accepted", i)
		}
		if rec != nil {
			twin := crowd.RestoreQueue(crowd.QueueOptions{Lease: lease, Now: clock}, rec.Queue)
			tctx, tcancel := context.WithCancel(ctx)
			want := op.apply(t, twin, twin.Collect(tctx))
			tcancel()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("op %d (%s): live queue returned %+v; queue restored from the log returned %+v", i, op.name, got, want)
			}
		}
		if got.A != nil {
			collected[got.A.HIT] = append(collected[got.A.HIT], *got.A)
			seen.answers++
			if op.name == "late" {
				seen.late++
			}
		}
		if op.retract >= 0 {
			delete(collected, op.retract)
			seen.retracts++
		}

		rec = recoverCopy(t, log, dir, cp, opts)
		if rec.SnapshotBytes > 0 {
			seen.compactions++
		}
		live := q.Snapshot()
		if len(live.Lapsed) > len(before.Lapsed) {
			seen.expired++
		}
		if rec.Queue == nil {
			t.Fatalf("op %d (%s): no queue state recovered", i, op.name)
		}
		if !reflect.DeepEqual(rec.Queue.Collected, collected) {
			t.Fatalf("op %d (%s): recovered Collected\n%+v\nwant the live HITs' answered slots\n%+v", i, op.name, rec.Queue.Collected, collected)
		}
		recovered := *rec.Queue
		recovered.Collected = nil
		if !reflect.DeepEqual(&recovered, live) {
			t.Fatalf("op %d (%s): recovered queue state\n%+v\nwant the live queue's\n%+v", i, op.name, &recovered, live)
		}
		var want, gotResume map[string]crowd.ResumedHIT
		for _, h := range live.HITs {
			if want == nil {
				want = map[string]crowd.ResumedHIT{}
			}
			want[crowd.ResumeKey(h)] = crowd.ResumedHIT{HIT: h, Slots: collected[h.ID]}
		}
		if rec.Resume != nil {
			gotResume = rec.Resume.ByKey
		}
		if !reflect.DeepEqual(gotResume, want) {
			t.Fatalf("op %d (%s): recovered Resume\n%+v\nwant the live HITs' answered slots\n%+v", i, op.name, gotResume, want)
		}
	}
}

// recoverCopy closes the log (flushing every buffered event), recovers a
// copy of its directory, and reopens the original for the live queue.
func recoverCopy(t *testing.T, log *swapLog, dir, cp string, opts Options) *Recovered {
	t.Helper()
	if err := log.fl.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(cp); err != nil {
		t.Fatal(err)
	}
	if err := os.CopyFS(cp, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	fl, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	log.fl = fl
	cfl, rec, err := Open(cp, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfl.Close()
	return rec
}

// queueGen draws ops against the live queue's current snapshot.
type queueGen struct {
	rng     *rand.Rand
	nextRec record.ID
	// claims is every lease any snapshot has shown, in first-seen order:
	// the ones no longer live are the late answer's candidates, drawn
	// from the test's own record rather than the snapshot's Lapsed.
	claims []crowd.ClaimSnapshot
	known  map[string]bool
}

func (g *queueGen) next(s *crowd.QueueSnapshot, first bool) queueOp {
	live := map[string]bool{}
	for _, c := range s.Claims {
		live[c.Token] = true
		if !g.known[c.Token] {
			g.known[c.Token] = true
			g.claims = append(g.claims, c)
		}
	}
	var gone []crowd.ClaimSnapshot
	for _, c := range g.claims {
		if !live[c.Token] {
			gone = append(gone, c)
		}
	}
	kind := g.rng.Intn(20)
	if first {
		kind = 0
	}
	worker := fmt.Sprintf("w%d", g.rng.Intn(4))
	op := queueOp{retract: -1}
	switch {
	case kind < 3 || len(s.HITs) == 0:
		hits := g.hits()
		op.name = "post"
		op.apply = func(t *testing.T, q *crowd.Queue, _ <-chan crowd.Assignment) opResult {
			return opResult{Err: q.Post(context.Background(), hits) != nil, HIT: -1}
		}
	case kind < 5:
		h := s.HITs[g.rng.Intn(len(s.HITs))]
		h.Assignments = 1
		op.name = "top-up"
		op.apply = func(t *testing.T, q *crowd.Queue, _ <-chan crowd.Assignment) opResult {
			return opResult{Err: q.Post(context.Background(), []crowd.HIT{h}) != nil, HIT: -1}
		}
	case kind < 15 && kind >= 10 && len(s.Claims) > 0:
		c := s.Claims[g.rng.Intn(len(s.Claims))]
		vs := g.verdicts(s, c.HIT)
		op.name = "answer"
		if kind == 14 {
			op.name, vs = "invalid answer", vs[:len(vs)-1]
		}
		op.apply = answerOp(c.Token, vs)
	case kind < 17 && kind >= 15 && len(gone) > 0:
		c := gone[g.rng.Intn(len(gone))]
		op.name = "late"
		op.apply = answerOp(c.Token, g.verdicts(s, c.HIT))
	case kind == 17 || kind == 18:
		op.name = "sweep"
		op.apply = func(t *testing.T, q *crowd.Queue, _ <-chan crowd.Assignment) opResult {
			q.Sweep()
			return opResult{HIT: -1}
		}
	case kind == 19:
		id := s.HITs[g.rng.Intn(len(s.HITs))].ID
		op.name, op.retract = "retract", id
		op.apply = func(t *testing.T, q *crowd.Queue, _ <-chan crowd.Assignment) opResult {
			q.Retract([]int{id})
			return opResult{HIT: -1}
		}
	default:
		op.name = "claim"
		op.apply = func(t *testing.T, q *crowd.Queue, _ <-chan crowd.Assignment) opResult {
			c, ok := q.Claim(worker)
			if !ok {
				return opResult{HIT: -1}
			}
			return opResult{HIT: c.HIT.ID, Waited: c.Waited}
		}
	}
	return op
}

// hits mints one or two fresh HITs over unused records: pair HITs of one
// or two pairs, or a three-record cluster HIT covering all its pairs.
func (g *queueGen) hits() []crowd.HIT {
	var out []crowd.HIT
	for n := 1 + g.rng.Intn(2); n > 0; n-- {
		r := g.nextRec
		assignments := 1 + g.rng.Intn(2)
		if g.rng.Intn(3) == 0 {
			g.nextRec += 3
			covered := []record.Pair{record.MakePair(r, r+1), record.MakePair(r, r+2), record.MakePair(r+1, r+2)}
			out = append(out, crowd.ClusterHITsFromGen([][]record.ID{{r, r + 1, r + 2}}, [][]record.Pair{covered}, assignments)...)
			continue
		}
		pairs := []record.Pair{record.MakePair(r, r+1)}
		g.nextRec += 2
		if g.rng.Intn(2) == 0 {
			pairs = append(pairs, record.MakePair(r+2, r+3))
			g.nextRec += 2
		}
		out = append(out, crowd.PairHITsFromGen([][]record.Pair{pairs}, assignments)...)
	}
	return out
}

// verdicts judges every pair of the HIT at random.
func (g *queueGen) verdicts(s *crowd.QueueSnapshot, id int) []crowd.Verdict {
	var vs []crowd.Verdict
	for _, h := range s.HITs {
		if h.ID != id {
			continue
		}
		for _, p := range h.Pairs {
			vs = append(vs, crowd.Verdict{A: p.A, B: p.B, Match: g.rng.Intn(2) == 0})
		}
	}
	return vs
}

// answerOp submits the verdicts under the token and, on success, reads
// the answered assignment off the stream (skipping expiries).
func answerOp(token string, vs []crowd.Verdict) func(*testing.T, *crowd.Queue, <-chan crowd.Assignment) opResult {
	return func(t *testing.T, q *crowd.Queue, stream <-chan crowd.Assignment) opResult {
		if err := q.Answer(token, vs); err != nil {
			return opResult{Err: true, HIT: -1}
		}
		for {
			select {
			case a := <-stream:
				if !a.Expired {
					return opResult{HIT: -1, A: &a}
				}
			case <-time.After(5 * time.Second):
				t.Fatal("answered assignment never reached the stream")
			}
		}
	}
}
