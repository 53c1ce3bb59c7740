package crowd

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"github.com/crowder/crowder/internal/hitgen"
	"github.com/crowder/crowder/internal/record"
)

// truthfulAnswer answers a claimed HIT's pairs according to ground truth.
func truthfulAnswer(t *testing.T, q *Queue, c *Claimed, truth record.PairSet) {
	t.Helper()
	var vs []Verdict
	for _, p := range c.HIT.Pairs {
		vs = append(vs, Verdict{A: p.A, B: p.B, Match: truth.Has(p.A, p.B)})
	}
	if err := q.Answer(c.Token, vs); err != nil {
		t.Fatalf("Answer(%s): %v", c.Token, err)
	}
}

// drainQueue answers every open assignment with the given worker pool,
// round-robin, until nothing is claimable.
func drainQueue(t *testing.T, q *Queue, truth record.PairSet, workers []string) {
	t.Helper()
	w := 0
	for {
		c, ok := q.Claim(workers[w%len(workers)])
		if !ok {
			return
		}
		w++
		truthfulAnswer(t, q, c, truth)
	}
}

// TestQueueBackendRoundTrip drives the full async lifecycle against the
// queue backend: the manager posts, external workers claim and answer
// with ground truth, and the assembled result contains every replica.
func TestQueueBackendRoundTrip(t *testing.T) {
	pairs := testPairs()
	truth := testTruth()
	q := NewQueue(QueueOptions{})

	hits := PairHITsFromGen([][]record.Pair{pairs[:3], pairs[3:]}, 2)

	var res *Result
	var execErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, execErr = ExecuteHITs(context.Background(), q, hits, ExecuteOptions{})
	}()

	// Workers drain the queue; claims may race the Post, so poll.
	deadline := time.After(5 * time.Second)
	answered := 0
	for answered < 4 { // 2 HITs × 2 assignments
		select {
		case <-deadline:
			t.Fatal("timed out answering HITs")
		default:
		}
		c, ok := q.Claim("w" + string(rune('0'+answered)))
		if !ok {
			time.Sleep(time.Millisecond)
			continue
		}
		truthfulAnswer(t, q, c, truth)
		answered++
	}
	<-done
	if execErr != nil {
		t.Fatal(execErr)
	}
	if want := 2 * len(pairs); len(res.Answers) != want {
		t.Fatalf("got %d answers; want %d", len(res.Answers), want)
	}
	for _, a := range res.Answers {
		if a.Match != truth.Has(a.Pair.A, a.Pair.B) {
			t.Errorf("truthful worker's answer for %v recorded wrong", a.Pair)
		}
	}
	if res.WorkersUsed != 4 {
		t.Errorf("WorkersUsed = %d; want 4", res.WorkersUsed)
	}
	if res.CostDollars != 4*DollarsPerAssignment {
		t.Errorf("CostDollars = %v", res.CostDollars)
	}
}

// TestQueueLeaseExpiryTopUp: a claim whose lease lapses surfaces as an
// expired assignment, and the lifecycle manager re-posts a replication
// top-up that another worker then completes.
func TestQueueLeaseExpiryTopUp(t *testing.T) {
	pairs := testPairs()[:2]
	truth := testTruth()

	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	q := NewQueue(QueueOptions{Lease: time.Minute, Now: clock})
	hits := PairHITsFromGen([][]record.Pair{pairs}, 2)

	var res *Result
	var execErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, execErr = ExecuteHITs(context.Background(), q, hits, ExecuteOptions{})
	}()

	// First worker claims and walks away.
	var lazy *Claimed
	waitFor(t, func() bool { var ok bool; lazy, ok = q.Claim("lazy"); return ok })

	// Second worker claims the other slot and answers.
	var c *Claimed
	waitFor(t, func() bool { var ok bool; c, ok = q.Claim("diligent"); return ok })
	truthfulAnswer(t, q, c, truth)

	// The lease lapses; the sweep reports it and the manager tops up.
	advance(2 * time.Minute)
	q.Sweep()

	// The lazy worker's token is now dead.
	if err := q.Answer(lazy.Token, nil); err == nil {
		t.Error("expired claim token should be rejected")
	}

	// A replacement worker picks up the topped-up assignment.
	var c2 *Claimed
	waitFor(t, func() bool { var ok bool; c2, ok = q.Claim("replacement"); return ok })
	truthfulAnswer(t, q, c2, truth)

	<-done
	if execErr != nil {
		t.Fatal(execErr)
	}
	if res.TopUps != 1 {
		t.Errorf("TopUps = %d; want 1", res.TopUps)
	}
	if want := 2 * len(pairs); len(res.Answers) != want {
		t.Fatalf("got %d answers; want %d", len(res.Answers), want)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExecuteHITsCancellation: cancelling the context mid-run returns the
// context error plus the partial result of everything collected so far,
// and retracts what is still open from the queue.
func TestExecuteHITsCancellation(t *testing.T) {
	pairs := testPairs()
	truth := testTruth()
	q := NewQueue(QueueOptions{})
	hits := PairHITsFromGen([][]record.Pair{pairs[:3], pairs[3:]}, 1)

	ctx, cancel := context.WithCancel(context.Background())
	var res *Result
	var execErr error
	done := make(chan struct{})
	firstComplete := make(chan struct{})
	var once sync.Once
	go func() {
		defer close(done)
		res, execErr = ExecuteHITs(ctx, q, hits, ExecuteOptions{
			OnProgress: func(p Progress) {
				if p.CompletedHITs == 1 {
					once.Do(func() { close(firstComplete) })
				}
			},
		})
	}()

	// Answer the first HIT only; cancel once the manager absorbed it.
	var c *Claimed
	waitFor(t, func() bool { var ok bool; c, ok = q.Claim("w0"); return ok })
	truthfulAnswer(t, q, c, truth)
	<-firstComplete
	cancel()
	<-done

	if !errors.Is(execErr, context.Canceled) {
		t.Fatalf("err = %v; want context.Canceled", execErr)
	}
	if res == nil {
		t.Fatal("cancelled run should still return the partial result")
	}
	if len(res.Answers) != 3 {
		t.Errorf("partial result has %d answers; want 3 (the completed HIT)", len(res.Answers))
	}
	// The unfinished HIT was retracted: nothing is claimable.
	if _, ok := q.Claim("w1"); ok {
		t.Error("cancelled run left HITs claimable in the queue")
	}
}

// answeredCount reports how many assignments have been answered (test
// hook).
func (q *Queue) answeredCount() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for _, c := range q.state.answered {
		n += c
	}
	return n
}

// TestLifecycleStateMachine traces one HIT through posted → answering →
// complete via the progress hook.
func TestLifecycleStateMachine(t *testing.T) {
	pairs := testPairs()[:2]
	truth := testTruth()
	q := NewQueue(QueueOptions{})
	hits := PairHITsFromGen([][]record.Pair{pairs}, 2)

	var mu sync.Mutex
	var states []HITState
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := ExecuteHITs(context.Background(), q, hits, ExecuteOptions{
			OnProgress: func(p Progress) {
				mu.Lock()
				states = append(states, p.State)
				mu.Unlock()
			},
			Interim: true,
		})
		if err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < 2; i++ {
		worker := fmt.Sprintf("w%d", i)
		var c *Claimed
		waitFor(t, func() bool { var ok bool; c, ok = q.Claim(worker); return ok })
		truthfulAnswer(t, q, c, truth)
	}
	<-done

	want := []HITState{HITPosted, HITAnswering, HITComplete}
	if len(states) != len(want) {
		t.Fatalf("state trace = %v; want %v", states, want)
	}
	for i := range want {
		if states[i] != want[i] {
			t.Fatalf("state trace = %v; want %v", states, want)
		}
	}
}

// TestInterimAggregation: the interim posterior over a completed HIT's
// truthful answers already decides its pairs correctly while the batch is
// still in flight.
func TestInterimAggregation(t *testing.T) {
	pairs := testPairs()
	truth := testTruth()
	q := NewQueue(QueueOptions{})
	hits := PairHITsFromGen([][]record.Pair{pairs[:3], pairs[3:]}, 3)

	var mu sync.Mutex
	interimSeen := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, err := ExecuteHITs(context.Background(), q, hits, ExecuteOptions{
			Interim: true,
			OnProgress: func(p Progress) {
				if p.State != HITComplete || p.CompletedHITs == p.TotalHITs {
					return
				}
				mu.Lock()
				defer mu.Unlock()
				interimSeen = true
				for pr, prob := range p.Interim {
					if (prob >= 0.5) != truth.Has(pr.A, pr.B) {
						t.Errorf("interim posterior misjudges %v: %v", pr, prob)
					}
				}
			},
		})
		if err != nil {
			t.Error(err)
		}
	}()
	drainWorkers := []string{"a", "b", "c"}
	waitFor(t, func() bool {
		drainQueue(t, q, truth, drainWorkers)
		select {
		case <-done:
			return true
		default:
			return false
		}
	})
	mu.Lock()
	defer mu.Unlock()
	if !interimSeen {
		t.Error("no interim aggregation event observed")
	}
}

// TestSimulatorVirtualClock: the simulator's Collect stream is ordered by
// simulated completion time — the virtual clock — not by HIT index.
func TestSimulatorVirtualClock(t *testing.T) {
	pairs := testPairs()
	truth := testTruth()
	pop := NewPopulation(1, PopulationOptions{Size: 60})
	sim, err := NewSimulator(truth, pop, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	hits := PairHITsFromGen([][]record.Pair{pairs[:2], pairs[2:4], pairs[4:]}, 3)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ch := sim.Collect(ctx)
	if err := sim.Post(ctx, hits); err != nil {
		t.Fatal(err)
	}
	last := -1.0
	for i := 0; i < 9; i++ { // 3 HITs × 3 assignments
		a := <-ch
		if a.Seconds < last {
			t.Fatalf("assignment %d out of virtual-clock order: %v after %v", i, a.Seconds, last)
		}
		last = a.Seconds
	}
}

// TestClusterKindQueueClosure: answering a cluster HIT through the queue
// transitively closes the verdicts over the HIT's records.
func TestClusterKindQueueClosure(t *testing.T) {
	recs := []record.ID{0, 1, 2}
	covered := []record.Pair{mk(0, 1), mk(1, 2), mk(0, 2)}
	q := NewQueue(QueueOptions{})
	hits := ClusterHITsFromGen([][]record.ID{recs}, [][]record.Pair{covered}, 1)

	var res *Result
	done := make(chan struct{})
	go func() {
		defer close(done)
		var err error
		res, err = ExecuteHITs(context.Background(), q, hits, ExecuteOptions{})
		if err != nil {
			t.Error(err)
		}
	}()
	var c *Claimed
	waitFor(t, func() bool { var ok bool; c, ok = q.Claim("w"); return ok })
	// Worker says (0,1) and (1,2) match but (0,2) does not — transitivity
	// must overrule the inconsistency.
	err := q.Answer(c.Token, []Verdict{
		{A: 0, B: 1, Match: true},
		{A: 1, B: 2, Match: true},
		{A: 0, B: 2, Match: false},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-done
	got := map[record.Pair]bool{}
	for _, a := range res.Answers {
		got[a.Pair] = a.Match
	}
	if !got[mk(0, 2)] {
		t.Error("transitive closure should force (0,2) to match")
	}
}

// TestQueueWorkerDistinctness: replicated assignments collect independent
// judgments — a worker never holds two live claims on the same HIT and
// never answers it twice. A lapsed claim lifts the bar (otherwise a
// topped-up slot could become permanently unclaimable), but an answered
// HIT stays barred to its answerer.
func TestQueueWorkerDistinctness(t *testing.T) {
	pairs := testPairs()[:2]
	truth := testTruth()
	q := NewQueue(QueueOptions{})
	if err := q.Post(context.Background(), PairHITsFromGen([][]record.Pair{pairs}, 3)); err != nil {
		t.Fatal(err)
	}
	c1, ok := q.Claim("alice")
	if !ok {
		t.Fatal("first claim failed")
	}
	if _, ok := q.Claim("alice"); ok {
		t.Fatal("alice claimed a second assignment of the same HIT")
	}
	if _, ok := q.Claim("bob"); !ok {
		t.Fatal("a different worker should claim the next slot")
	}
	// Once alice has answered, she stays barred from the HIT.
	truthfulAnswer(t, q, c1, truth)
	if _, ok := q.Claim("alice"); ok {
		t.Fatal("alice claimed a HIT she already answered")
	}

	// Expiry lifts the bar: the only available worker lapsing must not
	// leave the topped-up slot unclaimable forever.
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	q2 := NewQueue(QueueOptions{Lease: time.Minute, Now: func() time.Time { mu.Lock(); defer mu.Unlock(); return now }})
	if err := q2.Post(context.Background(), PairHITsFromGen([][]record.Pair{pairs}, 1)); err != nil {
		t.Fatal(err)
	}
	if _, ok := q2.Claim("lazy"); !ok {
		t.Fatal("claim failed")
	}
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()
	q2.Sweep()
	if oh := q2.Open(); len(oh) != 0 {
		t.Fatal("expired slot should not silently re-open")
	}
	// The manager would top up; simulate it.
	var hits []HIT
	for _, h := range q2.state.hits {
		h.Assignments = 1
		hits = append(hits, h)
	}
	if err := q2.Post(context.Background(), hits); err != nil {
		t.Fatal(err)
	}
	if _, ok := q2.Claim("lazy"); !ok {
		t.Fatal("the returned deserter should be able to serve the topped-up slot")
	}
}

// TestQueueAnswerValidation: incomplete verdicts and unknown tokens are
// rejected.
func TestQueueAnswerValidation(t *testing.T) {
	pairs := testPairs()[:2]
	q := NewQueue(QueueOptions{})
	if err := q.Post(context.Background(), PairHITsFromGen([][]record.Pair{pairs}, 1)); err != nil {
		t.Fatal(err)
	}
	c, ok := q.Claim("w")
	if !ok {
		t.Fatal("claim failed")
	}
	if err := q.Answer(c.Token, []Verdict{{A: pairs[0].A, B: pairs[0].B, Match: true}}); err == nil {
		t.Error("partial verdicts should be rejected")
	}
	if err := q.Answer("bogus", nil); err == nil {
		t.Error("unknown token should be rejected")
	}
}

// TestRunPairHITsMatchesLegacySnapshot pins the refactor: the async
// lifecycle over the simulated backend must reproduce the exact answer
// stream the synchronous executor produced (the pre-refactor snapshot is
// re-derived from the per-pair RNG construction, which did not change).
func TestRunPairHITsMatchesLegacySnapshot(t *testing.T) {
	pairs := testPairs()
	truth := testTruth()
	pop := NewPopulation(1, PopulationOptions{Size: 60})
	cfg := Config{Seed: 11}
	cfg.defaults()
	pool, err := preparePool(pop, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hits, err := hitgen.GeneratePairHITs(pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunPairHITs(hits, truth, pop, Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	// Reference: the legacy inline computation, pair-major per HIT.
	var i int
	for _, h := range hits {
		for _, p := range h.Pairs {
			rng := rand.New(rand.NewSource(pairSeed(cfg.Seed, p)))
			isMatch := truth.Has(p.A, p.B)
			for _, w := range pickDistinct(pool, cfg.Assignments, rng) {
				want := w.AnswerWithDifficulty(isMatch, cfg.difficultyOf(p), rng)
				a := res.Answers[i]
				if a.Pair != p || a.Worker != w.ID || a.Match != want {
					t.Fatalf("answer %d = %+v; want pair %v worker %d match %v", i, a, p, w.ID, want)
				}
				i++
			}
		}
	}
	if i != len(res.Answers) {
		t.Fatalf("answer count %d; reference %d", len(res.Answers), i)
	}
}
