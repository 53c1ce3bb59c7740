package aggregate

import (
	"math"
	"slices"
	"testing"

	"github.com/crowder/crowder/internal/record"
)

// sparseCohorts builds cohorts of three single-round workers: nMatch
// cohorts whose whole history is 10 pairs unanimously judged matches,
// then nReject cohorts whose whole history is perReject pairs
// unanimously judged non-matches. Everyone answers truthfully, so any
// inversion is the aggregator's alone.
func sparseCohorts(nMatch, nReject, perReject int) (answers []Answer, rejected []record.Pair, workers int) {
	pid := 0
	cohort := func(pairs int, match bool) {
		for i := 0; i < pairs; i++ {
			p := mk(2*pid, 2*pid+1)
			pid++
			if !match {
				rejected = append(rejected, p)
			}
			for w := workers; w < workers+3; w++ {
				answers = append(answers, Answer{Pair: p, Worker: w, Match: match})
			}
		}
		workers += 3
	}
	for c := 0; c < nMatch; c++ {
		cohort(10, true)
	}
	for c := 0; c < nReject; c++ {
		cohort(perReject, false)
	}
	SortCanonical(answers)
	return answers, rejected, workers
}

// sparseDegeneracyAnswers reconstructs the PR 4 stress-test degeneracy
// in its minimal form: 24 single-round workers — 7 cohorts of 3 whose
// whole history is 10 true-match pairs each, plus one cohort of 3 whose
// whole history is a single pair unanimously judged a non-match. The
// learned prevalence is ~70/71, the last cohort's match-class confusion
// rows are unsupported by any data, and plain Dawid–Skene flips the
// false 3-0 pair to a confident match.
func sparseDegeneracyAnswers() (answers []Answer, falsePair record.Pair, workers int) {
	answers, rejected, workers := sparseCohorts(7, 1, 1)
	return answers, rejected[0], workers
}

// Satellite regression: the exact ROADMAP degeneracy. 24 single-round
// workers; a pair judged false 3-0 must not exceed posterior 0.5 under
// the MAP aggregator. The test also pins the bug it fixes: plain
// Dawid–Skene (bit-identical by contract, so this cannot drift) does
// invert the unanimous rejection.
func TestSparseCoverageDegeneracyRegression(t *testing.T) {
	answers, falsePair, workers := sparseDegeneracyAnswers()
	if workers != 24 {
		t.Fatalf("repro built %d workers; the ROADMAP scenario has 24", workers)
	}

	// Plain Dawid–Skene does not just flip the false pair: it publishes
	// it in the top posterior decile, as confident as the true matches.
	ds := DawidSkene(answers, DawidSkeneOptions{})
	if ds[falsePair] < 0.9 {
		t.Fatalf("plain Dawid–Skene gave the false 3-0 pair posterior %v; the pinned degeneracy should invert it to ≥ 0.9 — did the default path change?", ds[falsePair])
	}

	mp := DawidSkeneMAP(answers, MAPOptions{})
	if mp[falsePair] >= 0.5 {
		t.Errorf("MAP aggregator gave the unanimously rejected pair posterior %v; must stay below 0.5", mp[falsePair])
	}
	// The fix must not cost the true matches: every unanimous 3-0 match
	// keeps a confident posterior.
	for p, v := range mp {
		if p == falsePair {
			continue
		}
		if v < 0.9 {
			t.Errorf("MAP posterior(%v) = %v; unanimous true matches should stay ≥ 0.9", p, v)
		}
	}
}

// No unanimous-verdict inversion, the general property: whatever the
// coverage pattern, a pair whose answers are unanimous must not be
// decided against them by the MAP aggregator. The second input is the
// retired aggregation gate's stress workload — 90 single-round workers,
// 260 unanimous pairs — on which plain Dawid–Skene inverts 10 pairs. On
// each input plain Dawid–Skene must invert at least one, or the case
// proves nothing.
func TestDawidSkeneMAPNeverInvertsUnanimous(t *testing.T) {
	minimal, _, _ := sparseDegeneracyAnswers()
	gate, _, _ := sparseCohorts(25, 5, 2)
	for _, in := range []struct {
		name    string
		answers []Answer
	}{{"minimal", minimal}, {"gate", gate}} {
		t.Run(in.name, func(t *testing.T) {
			if inv := unanimousInversions(in.answers, DawidSkeneMAP(in.answers, MAPOptions{})); len(inv) > 0 {
				t.Errorf("MAP inverted %d unanimous verdicts: %v", len(inv), inv)
			}
			if inv := unanimousInversions(in.answers, DawidSkene(in.answers, DawidSkeneOptions{})); len(inv) == 0 {
				t.Error("plain Dawid–Skene inverts nothing here; the case is vacuous")
			}
		})
	}
}

// The workload builder behind the sparse-coverage tests: five cohorts of
// three, and every answer agrees with the design — rejected pairs are
// unanimously false, all others unanimously true — so an inversion found
// on it is the aggregator's, not the workload's.
func TestSparseWorkloadShape(t *testing.T) {
	answers, rejected, workers := sparseCohorts(3, 2, 2)
	if workers != 15 {
		t.Errorf("workers = %d; want 15 (5 cohorts of 3)", workers)
	}
	if len(rejected) != 4 {
		t.Errorf("rejected pairs = %d; want 4 (2 cohorts x 2 pairs)", len(rejected))
	}
	// 3 cohorts x 10 pairs x 3 answers + 2 cohorts x 2 pairs x 3 answers.
	if want := 3*10*3 + 2*2*3; len(answers) != want {
		t.Errorf("answers = %d; want %d", len(answers), want)
	}
	for _, a := range answers {
		if a.Match == slices.Contains(rejected, a.Pair) {
			t.Fatalf("answer %+v contradicts the workload's design", a)
		}
	}
}

// The inversion counter must see both directions and skip split pairs,
// or "MAP inverts nothing" above could hold vacuously.
func TestUnanimousInversions(t *testing.T) {
	answers := []Answer{
		{Pair: mk(0, 1), Worker: 1, Match: true},
		{Pair: mk(0, 1), Worker: 2, Match: true},
		{Pair: mk(2, 3), Worker: 1, Match: false},
		{Pair: mk(2, 3), Worker: 2, Match: false},
		{Pair: mk(4, 5), Worker: 1, Match: true}, // split: not unanimous
		{Pair: mk(4, 5), Worker: 2, Match: false},
	}
	inv := unanimousInversions(answers, Posterior{
		mk(0, 1): 0.2,  // inverts the unanimous yes
		mk(2, 3): 0.91, // inverts the unanimous no
		mk(4, 5): 0.99, // split pair: never counted
	})
	record.SortPairs(inv)
	if want := []record.Pair{mk(0, 1), mk(2, 3)}; !slices.Equal(inv, want) {
		t.Errorf("inversions = %v; want %v", inv, want)
	}
	if inv := unanimousInversions(answers, Posterior{
		mk(0, 1): 0.9, mk(2, 3): 0.1, mk(4, 5): 0.5,
	}); len(inv) != 0 {
		t.Errorf("faithful posterior counted inversions %v", inv)
	}
}

// unanimousInversions lists the unanimously judged pairs whose
// posterior decision contradicts their unanimous verdict.
func unanimousInversions(answers []Answer, post Posterior) []record.Pair {
	var inv []record.Pair
	yes := make(map[record.Pair]int)
	total := make(map[record.Pair]int)
	for _, a := range answers {
		total[a.Pair]++
		if a.Match {
			yes[a.Pair]++
		}
	}
	for p, tot := range total {
		if (yes[p] == tot && post[p] < 0.5) || (yes[p] == 0 && post[p] >= 0.5) {
			inv = append(inv, p)
		}
	}
	return inv
}

// Property: in the dense-coverage limit — long per-worker histories over
// both classes — DawidSkeneMAP with weak priors degenerates to plain
// DawidSkene, and even the default informative priors change no
// decision: every prior term is O(1/n) against the data.
func TestDawidSkeneMAPDenseLimitEquivalence(t *testing.T) {
	for _, seed := range []int64{3, 23, 71} {
		answers, _ := buildNoisyAnswers(seed, 800, 5, 1, 0.9)
		SortCanonical(answers)
		ds := DawidSkene(answers, DawidSkeneOptions{})

		// Weak prior ≙ the additive smoothing of the plain estimator,
		// anchoring disabled: the two EM fixed points coincide.
		weak := DawidSkeneMAP(answers, MAPOptions{
			ConfAlpha: 0.01, ConfBeta: 0.01,
			PriorAlpha: 1, PriorBeta: 1,
			Anchor: -1,
		})
		if len(weak) != len(ds) {
			t.Fatalf("seed %d: weak MAP covers %d pairs, DS %d", seed, len(weak), len(ds))
		}
		for p, v := range ds {
			if d := math.Abs(v - weak[p]); d > 1e-9 {
				t.Fatalf("seed %d: weak-prior MAP diverges from DawidSkene on %v: %v vs %v (Δ %v)", seed, p, weak[p], v, d)
			}
		}

		// Default priors: numerically close, decisions identical.
		def := DawidSkeneMAP(answers, MAPOptions{})
		for p, v := range ds {
			if (v >= 0.5) != (def[p] >= 0.5) {
				t.Errorf("seed %d: default MAP flips dense-coverage decision on %v: %v vs %v", seed, p, def[p], v)
			}
			if d := math.Abs(v - def[p]); d > 0.05 {
				t.Errorf("seed %d: default MAP drifts %v from DawidSkene on %v", seed, d, p)
			}
		}
	}
}

// Table-driven convergence and edge cases shared across both EM
// aggregators: tiny inputs, ties, conflict, and determinism (aggregating
// the same canonical set twice is bit-identical).
func TestEMAggregatorsTable(t *testing.T) {
	one := []Answer{{Pair: mk(0, 1), Worker: 1, Match: true}}
	tie := []Answer{
		{Pair: mk(0, 1), Worker: 1, Match: true},
		{Pair: mk(0, 1), Worker: 2, Match: false},
	}
	conflict := []Answer{
		{Pair: mk(0, 1), Worker: 1, Match: true},
		{Pair: mk(0, 1), Worker: 2, Match: true},
		{Pair: mk(0, 1), Worker: 3, Match: false},
		{Pair: mk(2, 3), Worker: 1, Match: false},
		{Pair: mk(2, 3), Worker: 2, Match: false},
		{Pair: mk(2, 3), Worker: 3, Match: false},
	}
	aggs := []struct {
		name string
		run  func([]Answer) Posterior
	}{
		{"dawid-skene", func(as []Answer) Posterior { return DawidSkene(as, DawidSkeneOptions{}) }},
		{"dawid-skene-map", func(as []Answer) Posterior { return DawidSkeneMAP(as, MAPOptions{}) }},
	}
	cases := []struct {
		name    string
		answers []Answer
		want    map[record.Pair]bool // expected decision per pair
	}{
		{"empty", nil, map[record.Pair]bool{}},
		{"one answer", one, map[record.Pair]bool{mk(0, 1): true}},
		{"tie stays undecided-as-match-boundary", tie, nil}, // bounds-only: the tie posterior is checked below
		{"majority conflict", conflict, map[record.Pair]bool{mk(0, 1): true, mk(2, 3): false}},
	}
	for _, agg := range aggs {
		for _, tc := range cases {
			t.Run(agg.name+"/"+tc.name, func(t *testing.T) {
				post := agg.run(tc.answers)
				again := agg.run(tc.answers)
				if len(post) != len(again) {
					t.Fatal("same input, different pair coverage")
				}
				for p, v := range post {
					if v < 0 || v > 1 {
						t.Fatalf("posterior(%v) = %v outside [0,1]", p, v)
					}
					if again[p] != v {
						t.Fatalf("aggregation is not deterministic on %v: %v vs %v", p, v, again[p])
					}
				}
				if tc.want != nil {
					if len(post) != len(tc.want) {
						t.Fatalf("covered %d pairs; want %d", len(post), len(tc.want))
					}
					for p, match := range tc.want {
						if got := post[p] >= 0.5; got != match {
							t.Errorf("decision(%v) = %v (posterior %v); want %v", p, got, post[p], match)
						}
					}
				}
			})
		}
	}
}

// Tie-breaking: a 1-1 split between two otherwise indistinguishable
// workers must stay at the 0.5 boundary (symmetry), and Matches(0.5)
// resolves the boundary toward "match" by its ≥ convention.
func TestTieBreaking(t *testing.T) {
	tie := []Answer{
		{Pair: mk(0, 1), Worker: 1, Match: true},
		{Pair: mk(0, 1), Worker: 2, Match: false},
	}
	mv := MajorityVote(tie)
	if mv[mk(0, 1)] != 0.5 {
		t.Errorf("majority vote on a 1-1 tie = %v; want 0.5", mv[mk(0, 1)])
	}
	if !mv.Matches(0.5).Has(0, 1) {
		t.Error("Matches(0.5) must include the 0.5 boundary (≥ convention)")
	}
	for name, post := range map[string]Posterior{
		"dawid-skene":     DawidSkene(tie, DawidSkeneOptions{}),
		"dawid-skene-map": DawidSkeneMAP(tie, MAPOptions{}),
	} {
		if d := math.Abs(post[mk(0, 1)] - 0.5); d > 1e-6 {
			t.Errorf("%s broke the 1-1 symmetry: posterior %v", name, post[mk(0, 1)])
		}
	}
}

func TestDawidSkeneMAPEmpty(t *testing.T) {
	if post := DawidSkeneMAP(nil, MAPOptions{}); len(post) != 0 {
		t.Errorf("empty answers should give empty posterior; got %v", post)
	}
}

// The MAP aggregator must behave on the spammer workload at least as
// well as the plain estimator: consistency across pairs is still what
// identifies the spammers.
func TestDawidSkeneMAPBeatsMajorityWithSpammers(t *testing.T) {
	answers, truth := buildNoisyAnswers(5, 400, 2, 3, 0.95)
	SortCanonical(answers)
	mp := DawidSkeneMAP(answers, MAPOptions{})
	mv := MajorityVote(answers)
	errCount := func(post Posterior) int {
		e := 0
		for p, isMatch := range truth {
			if (post[p] >= 0.5) != isMatch {
				e++
			}
		}
		return e
	}
	if mpErr, mvErr := errCount(mp), errCount(mv); mpErr >= mvErr {
		t.Errorf("MAP errors (%d) should be below majority vote (%d)", mpErr, mvErr)
	}
}
