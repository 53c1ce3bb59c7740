package crowd

import (
	"math/rand"
	"testing"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/hitgen"
	"github.com/crowder/crowder/internal/record"
)

func mk(a, b int) record.Pair { return record.MakePair(record.ID(a), record.ID(b)) }

// countClass returns the number of workers of class c in p.
func countClass(p *Population, c WorkerClass) int {
	n := 0
	for _, w := range p.Workers {
		if w.Class == c {
			n++
		}
	}
	return n
}

func TestNewPopulationComposition(t *testing.T) {
	pop := NewPopulation(1, PopulationOptions{Size: 1000})
	if pop.Size() != 1000 {
		t.Fatalf("Size = %d; want 1000", pop.Size())
	}
	spam := countClass(pop, Spammer)
	sloppy := countClass(pop, Sloppy)
	reliable := countClass(pop, Reliable)
	if spam+sloppy+reliable != 1000 {
		t.Fatal("classes do not partition the population")
	}
	// Defaults: 12% spammers, 20% sloppy (± sampling noise).
	if spam < 80 || spam > 160 {
		t.Errorf("spammers = %d; want ≈ 120", spam)
	}
	if sloppy < 150 || sloppy > 260 {
		t.Errorf("sloppy = %d; want ≈ 200", sloppy)
	}
}

func TestPopulationDeterministic(t *testing.T) {
	a := NewPopulation(5, PopulationOptions{Size: 50})
	b := NewPopulation(5, PopulationOptions{Size: 50})
	for i := range a.Workers {
		if a.Workers[i].TPR != b.Workers[i].TPR || a.Workers[i].Class != b.Workers[i].Class {
			t.Fatal("same seed produced different populations")
		}
	}
}

func TestWorkerAnswerAccuracy(t *testing.T) {
	w := &Worker{TPR: 0.9, TNR: 0.8}
	rng := rand.New(rand.NewSource(3))
	nTrials := 20000
	yesOnMatch, yesOnNonMatch := 0, 0
	for i := 0; i < nTrials; i++ {
		if w.Answer(true, rng) {
			yesOnMatch++
		}
		if w.Answer(false, rng) {
			yesOnNonMatch++
		}
	}
	if f := float64(yesOnMatch) / float64(nTrials); f < 0.88 || f > 0.92 {
		t.Errorf("empirical TPR = %v; want ≈ 0.9", f)
	}
	if f := float64(yesOnNonMatch) / float64(nTrials); f < 0.18 || f > 0.22 {
		t.Errorf("empirical FPR = %v; want ≈ 0.2", f)
	}
}

func TestQualificationTestWeedsSpammers(t *testing.T) {
	pop := NewPopulation(2, PopulationOptions{Size: 2000})
	q := pop.QualificationTest(7)
	if q.Size() >= pop.Size() {
		t.Fatal("qualification test should remove some workers")
	}
	spamBefore := float64(countClass(pop, Spammer)) / float64(pop.Size())
	spamAfter := float64(countClass(q, Spammer)) / float64(q.Size())
	if spamAfter >= spamBefore/2 {
		t.Errorf("spammer rate %.3f → %.3f; test should cut it at least in half", spamBefore, spamAfter)
	}
	relBefore := float64(countClass(pop, Reliable)) / float64(pop.Size())
	relAfter := float64(countClass(q, Reliable)) / float64(q.Size())
	if relAfter <= relBefore {
		t.Errorf("reliable share should rise: %.3f → %.3f", relBefore, relAfter)
	}
}

func testTruth() record.PairSet {
	return record.NewPairSet(mk(0, 1), mk(0, 2), mk(1, 2), mk(5, 6))
}

func testPairs() []record.Pair {
	return []record.Pair{mk(0, 1), mk(0, 2), mk(1, 2), mk(3, 4), mk(5, 6), mk(7, 8)}
}

func TestRunPairHITsBasics(t *testing.T) {
	pairs := testPairs()
	hits, err := hitgen.GeneratePairHITs(pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	pop := NewPopulation(1, PopulationOptions{Size: 60})
	res, err := RunPairHITs(hits, testTruth(), pop, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 3 HITs × 3 assignments × 2 pairs = 18 answers.
	if len(res.Answers) != 18 {
		t.Fatalf("got %d answers; want 18", len(res.Answers))
	}
	if len(res.AssignmentSeconds) != 9 {
		t.Fatalf("got %d assignment durations; want 9", len(res.AssignmentSeconds))
	}
	wantCost := float64(9) * DollarsPerAssignment
	if res.CostDollars != wantCost {
		t.Errorf("cost = %v; want %v", res.CostDollars, wantCost)
	}
	if res.TotalSeconds <= 0 {
		t.Error("makespan must be positive")
	}
	if res.WorkersUsed < 3 {
		t.Errorf("workers used = %d; want >= 3", res.WorkersUsed)
	}
}

func TestRunClusterHITsBasics(t *testing.T) {
	pairs := testPairs()
	gen := hitgen.TwoTiered{}
	hits, err := gen.Generate(pairs, 4)
	if err != nil {
		t.Fatal(err)
	}
	pop := NewPopulation(1, PopulationOptions{Size: 60})
	res, err := RunClusterHITs(hits, pairs, testTruth(), pop, Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Answers) == 0 {
		t.Fatal("no answers collected")
	}
	// Every covered pair must be answered by every assignment.
	counts := map[record.Pair]int{}
	for _, a := range res.Answers {
		counts[a.Pair]++
	}
	for _, p := range pairs {
		if counts[p] == 0 {
			t.Errorf("pair %v got no answers", p)
		}
		if counts[p]%3 != 0 {
			t.Errorf("pair %v got %d answers; want a multiple of 3", p, counts[p])
		}
	}
}

func TestClusterAnswersTransitivity(t *testing.T) {
	// A perfect worker must produce transitively consistent answers; an
	// (impossible) intransitive configuration cannot survive union-find.
	answer := func(w *Worker, covered []record.Pair, truth record.PairSet) map[record.Pair]bool {
		s := &Simulator{truth: truth, pool: &Population{Workers: []*Worker{w}}}
		s.cfg.defaults()
		o := s.simulateClusterHIT(HIT{Kind: ClusterKind, Records: []record.ID{0, 1, 2}, Pairs: covered, Assignments: 1})
		um := map[record.Pair]bool{}
		for _, a := range o.answers {
			um[a.Pair] = a.Match
		}
		return um
	}
	covered := []record.Pair{mk(0, 1), mk(1, 2), mk(0, 2)}
	truth := record.NewPairSet(mk(0, 1), mk(1, 2), mk(0, 2))
	for p, m := range answer(&Worker{TPR: 1, TNR: 1}, covered, truth) {
		if !m {
			t.Errorf("perfect worker answered %v as non-match", p)
		}
	}
	// If a worker says (0,1) and (1,2) match, transitivity forces (0,2).
	biased := &Worker{TPR: 1, TNR: 0} // answers yes to everything
	um := answer(biased, covered[:2], record.NewPairSet())
	if !um[mk(0, 1)] || !um[mk(1, 2)] {
		t.Fatal("biased worker should have matched both pairs")
	}
}

func TestPerfectCrowdRecoversGroundTruth(t *testing.T) {
	pairs := testPairs()
	truth := testTruth()
	hits, _ := hitgen.GeneratePairHITs(pairs, 3)
	// All-reliable population with perfect accuracy.
	pop := &Population{}
	for i := 0; i < 10; i++ {
		pop.Workers = append(pop.Workers, &Worker{ID: i, TPR: 1, TNR: 1, Speed: 1})
	}
	res, err := RunPairHITs(hits, truth, pop, Config{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	post := aggregate.DawidSkene(res.Answers, aggregate.DawidSkeneOptions{})
	for _, p := range pairs {
		want := truth.Has(p.A, p.B)
		if got := post[p] >= 0.5; got != want {
			t.Errorf("pair %v decided %v; want %v", p, got, want)
		}
	}
}

func TestQualificationTestImprovesAnswerQuality(t *testing.T) {
	// Build a spammy population; QT should raise agreement with truth.
	pop := NewPopulation(3, PopulationOptions{Size: 300, SpammerRate: 0.4})
	var pairs []record.Pair
	truth := record.NewPairSet()
	for i := 0; i < 120; i++ {
		p := mk(2*i, 2*i+1)
		pairs = append(pairs, p)
		if i%3 == 0 {
			truth.Add(p.A, p.B)
		}
	}
	hits, _ := hitgen.GeneratePairHITs(pairs, 10)
	accuracy := func(qt bool) float64 {
		res, err := RunPairHITs(hits, truth, pop, Config{Seed: 5, QualificationTest: qt})
		if err != nil {
			t.Fatal(err)
		}
		post := aggregate.DawidSkene(res.Answers, aggregate.DawidSkeneOptions{})
		ok := 0
		for _, p := range pairs {
			if (post[p] >= 0.5) == truth.Has(p.A, p.B) {
				ok++
			}
		}
		return float64(ok) / float64(len(pairs))
	}
	if aQT, a := accuracy(true), accuracy(false); aQT < a-0.02 {
		t.Errorf("QT accuracy %.3f should not trail no-QT accuracy %.3f", aQT, a)
	}
}

func TestMedianAssignmentSeconds(t *testing.T) {
	r := &Result{AssignmentSeconds: []float64{10, 30, 20}}
	if got := r.MedianAssignmentSeconds(); got != 20 {
		t.Errorf("median = %v; want 20", got)
	}
	r = &Result{AssignmentSeconds: []float64{10, 20, 30, 40}}
	if got := r.MedianAssignmentSeconds(); got != 25 {
		t.Errorf("even median = %v; want 25", got)
	}
	r = &Result{}
	if got := r.MedianAssignmentSeconds(); got != 0 {
		t.Errorf("empty median = %v; want 0", got)
	}
}

func TestMakespanScalesWithAttraction(t *testing.T) {
	pop := NewPopulation(1, PopulationOptions{Size: 100})
	assignments := make([]float64, 400)
	for i := range assignments {
		assignments[i] = 60
	}
	full := makespan(assignments, pop, 1.0)
	half := makespan(assignments, pop, 0.5)
	if half <= full {
		t.Errorf("lower attraction should lengthen makespan: full=%v half=%v", full, half)
	}
}

func TestEffortDiscount(t *testing.T) {
	if got := effortDiscount(10, 20); got != 1 {
		t.Errorf("under fair effort should not discount; got %v", got)
	}
	if got := effortDiscount(40, 20); got != 0.5 {
		t.Errorf("double effort should halve attraction; got %v", got)
	}
}

func TestPreparePoolErrors(t *testing.T) {
	pop := &Population{Workers: []*Worker{{ID: 0, TPR: 1, TNR: 1}}}
	cfg := Config{}
	cfg.defaults()
	if _, err := preparePool(pop, cfg); err == nil {
		t.Fatal("pool smaller than replication factor should error")
	}
}

// Acceptance: concurrent crowd execution is bit-identical to the
// sequential path at every parallelism level, for both HIT formats. Run
// with -race to catch unsynchronized writes in the per-HIT executor.
func TestRunParallelismEquivalence(t *testing.T) {
	pairs := testPairs()
	truth := testTruth()
	pop := NewPopulation(1, PopulationOptions{Size: 60})

	pairHITs, err := hitgen.GeneratePairHITs(pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	clusterHITs, err := hitgen.TwoTiered{}.Generate(pairs, 4)
	if err != nil {
		t.Fatal(err)
	}

	assertSame := func(t *testing.T, base, got *Result, par int) {
		t.Helper()
		if len(got.Answers) != len(base.Answers) {
			t.Fatalf("parallelism %d: %d answers vs %d", par, len(got.Answers), len(base.Answers))
		}
		for i := range base.Answers {
			if got.Answers[i] != base.Answers[i] {
				t.Fatalf("parallelism %d: answer %d differs: %v vs %v", par, i, got.Answers[i], base.Answers[i])
			}
		}
		if len(got.AssignmentSeconds) != len(base.AssignmentSeconds) {
			t.Fatalf("parallelism %d: assignment count differs", par)
		}
		for i := range base.AssignmentSeconds {
			if got.AssignmentSeconds[i] != base.AssignmentSeconds[i] {
				t.Fatalf("parallelism %d: assignment %d seconds differ", par, i)
			}
		}
		if got.TotalSeconds != base.TotalSeconds || got.CostDollars != base.CostDollars ||
			got.WorkersUsed != base.WorkersUsed {
			t.Fatalf("parallelism %d: aggregate figures differ", par)
		}
	}

	t.Run("PairHITs", func(t *testing.T) {
		base, err := RunPairHITs(pairHITs, truth, pop, Config{Seed: 11, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 8} {
			got, err := RunPairHITs(pairHITs, truth, pop, Config{Seed: 11, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			assertSame(t, base, got, par)
		}
	})
	t.Run("ClusterHITs", func(t *testing.T) {
		base, err := RunClusterHITs(clusterHITs, pairs, truth, pop, Config{Seed: 11, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, par := range []int{2, 8} {
			got, err := RunClusterHITs(clusterHITs, pairs, truth, pop, Config{Seed: 11, Parallelism: par})
			if err != nil {
				t.Fatal(err)
			}
			assertSame(t, base, got, par)
		}
	})
}

func TestHitSeedDecorrelates(t *testing.T) {
	seen := map[int64]bool{}
	for stream := 1; stream <= 2; stream++ {
		for h := 0; h < 1000; h++ {
			s := hitSeed(42, stream, h)
			if seen[s] {
				t.Fatalf("duplicate seed for stream=%d hit=%d", stream, h)
			}
			seen[s] = true
		}
	}
	if hitSeed(1, streamPairHITs, 0) == hitSeed(2, streamPairHITs, 0) {
		t.Error("different base seeds should give different HIT seeds")
	}
}

func TestRunDeterministicPerSeed(t *testing.T) {
	pairs := testPairs()
	hits, _ := hitgen.GeneratePairHITs(pairs, 2)
	pop := NewPopulation(1, PopulationOptions{Size: 50})
	r1, _ := RunPairHITs(hits, testTruth(), pop, Config{Seed: 11})
	r2, _ := RunPairHITs(hits, testTruth(), pop, Config{Seed: 11})
	if len(r1.Answers) != len(r2.Answers) {
		t.Fatal("same seed gave different answer counts")
	}
	for i := range r1.Answers {
		if r1.Answers[i] != r2.Answers[i] {
			t.Fatal("same seed gave different answers")
		}
	}
}

// Acceptance: a pair's verdicts are a pure function of (seed, pair) —
// re-batching the same candidate set into different HIT sizes, or
// presenting the pairs in a different order, changes no answer. This is
// the invariant the incremental resolver's verdict cache relies on.
func TestPairAnswersInvariantUnderBatching(t *testing.T) {
	pairs := testPairs()
	truth := testTruth()
	pop := NewPopulation(1, PopulationOptions{Size: 60})

	canonical := func(hits []hitgen.PairHIT) map[record.Pair][]aggregate.Answer {
		res, err := RunPairHITs(hits, truth, pop, Config{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		byPair := map[record.Pair][]aggregate.Answer{}
		for _, a := range res.Answers {
			byPair[a.Pair] = append(byPair[a.Pair], a)
		}
		return byPair
	}

	base, err := hitgen.GeneratePairHITs(pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := canonical(base)

	reversed := make([]record.Pair, len(pairs))
	for i, p := range pairs {
		reversed[len(pairs)-1-i] = p
	}
	for name, alt := range map[string][]record.Pair{"one-per-hit": pairs, "reversed": reversed, "single-hit": pairs} {
		k := map[string]int{"one-per-hit": 1, "reversed": 3, "single-hit": len(pairs)}[name]
		hits, err := hitgen.GeneratePairHITs(alt, k)
		if err != nil {
			t.Fatal(err)
		}
		got := canonical(hits)
		if len(got) != len(want) {
			t.Fatalf("%s: %d judged pairs vs %d", name, len(got), len(want))
		}
		for p, wa := range want {
			ga := got[p]
			if len(ga) != len(wa) {
				t.Fatalf("%s: pair %v has %d answers vs %d", name, p, len(ga), len(wa))
			}
			for i := range wa {
				if ga[i] != wa[i] {
					t.Fatalf("%s: pair %v answer %d differs: %v vs %v", name, p, i, ga[i], wa[i])
				}
			}
		}
	}
}

// The NoSpammers sentinel must produce a genuinely clean pool, while the
// zero value keeps the 0.12 default.
func TestNoSpammersSentinel(t *testing.T) {
	clean := NewPopulation(1, PopulationOptions{Size: 800, SpammerRate: NoSpammers})
	if got := countClass(clean, Spammer); got != 0 {
		t.Errorf("NoSpammers pool has %d spammers", got)
	}
	def := NewPopulation(1, PopulationOptions{Size: 800})
	if got := countClass(def, Spammer); got == 0 {
		t.Error("zero-value options should keep the default spammer rate")
	}
}
