package aggregate

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"github.com/crowder/crowder/internal/record"
)

func TestMethodRoundTrip(t *testing.T) {
	for _, m := range []Method{MethodDawidSkene, MethodMajorityVote, MethodDawidSkeneMAP} {
		got, err := ParseMethod(m.String())
		if err != nil {
			t.Fatalf("ParseMethod(%q): %v", m, err)
		}
		if got != m {
			t.Errorf("ParseMethod(%q) = %v; want %v", m.String(), got, m)
		}
		agg, err := New(m)
		if err != nil {
			t.Fatalf("New(%v): %v", m, err)
		}
		if agg.Name() != m.String() {
			t.Errorf("New(%v).Name() = %q; want %q", m, agg.Name(), m.String())
		}
	}
}

func TestMethodDefaults(t *testing.T) {
	if MethodDawidSkene != 0 {
		t.Fatal("MethodDawidSkene must be the zero value: the default aggregation path is pinned bit-identical")
	}
	if m, err := ParseMethod(""); err != nil || m != MethodDawidSkene {
		t.Errorf("ParseMethod(\"\") = %v, %v; the empty string selects the default", m, err)
	}
}

func TestMethodUnknown(t *testing.T) {
	if _, err := ParseMethod("em"); err == nil || !strings.Contains(err.Error(), `"em"`) {
		t.Errorf("ParseMethod of an unknown name should fail naming it; got %v", err)
	}
	if _, err := New(Method(42)); err == nil {
		t.Error("New of an unknown method should fail")
	}
	if s := Method(42).String(); !strings.Contains(s, "42") {
		t.Errorf("unknown Method.String() = %q; should carry the raw value", s)
	}
}

// The three built-in aggregators are pure functions of the canonical
// answer set and agree on an unambiguous workload.
func TestAggregatorsAgreeOnUnanimousAnswers(t *testing.T) {
	var answers []Answer
	truth := map[int]bool{0: true, 1: false, 2: true, 3: false}
	for i, isMatch := range truth {
		for w := 1; w <= 3; w++ {
			answers = append(answers, Answer{Pair: mk(2*i, 2*i+1), Worker: w, Match: isMatch})
		}
	}
	SortCanonical(answers)
	for _, m := range []Method{MethodDawidSkene, MethodMajorityVote, MethodDawidSkeneMAP} {
		agg, err := New(m)
		if err != nil {
			t.Fatal(err)
		}
		post := agg.Aggregate(answers)
		for i, isMatch := range truth {
			if got := post[mk(2*i, 2*i+1)] >= 0.5; got != isMatch {
				t.Errorf("%s decided pair %d as %v; unanimous answers say %v", agg.Name(), i, got, isMatch)
			}
		}
	}
}

// Dense is Aggregate as a slice, bit for bit: for each built-in
// aggregator, on canonically sorted and on shuffled answer sets, the
// i-th posterior belongs to the i-th distinct pair in answer order.
func TestDenseMatchesAggregate(t *testing.T) {
	inputs := [][]Answer{nil}
	for _, in := range emEdgeInputs() {
		inputs = append(inputs, in)
	}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		shuffled := randomAnswers(rng)
		sorted := slices.Clone(shuffled)
		SortCanonical(sorted)
		inputs = append(inputs, shuffled, sorted, hitAnswers(rng, 1+rng.Intn(20), 2+rng.Intn(8), 8+rng.Intn(20), seed%2 == 0))
	}
	for _, m := range []Method{MethodDawidSkene, MethodMajorityVote, MethodDawidSkeneMAP} {
		agg, _ := New(m)
		for k, answers := range inputs {
			post, dense := agg.Aggregate(answers), agg.Dense(answers)
			var order []record.Pair
			for i, a := range answers {
				if i == 0 || a.Pair != answers[i-1].Pair && !slices.Contains(order, a.Pair) {
					order = append(order, a.Pair)
				}
			}
			if len(dense) != len(post) || len(order) != len(post) {
				t.Fatalf("%v input %d: %d dense posteriors for %d pairs", m, k, len(dense), len(post))
			}
			for i, p := range order {
				if math.Float64bits(dense[i]) != math.Float64bits(post[p]) {
					t.Fatalf("%v input %d: pair %v dense %v; Aggregate %v", m, k, p, dense[i], post[p])
				}
			}
		}
	}
}

// One aggregator reuses one index, so calls on it from several
// goroutines at once serialize: each still returns what a fresh run
// returns, bit for bit.
func TestAggregatorConcurrentCalls(t *testing.T) {
	agg, err := New(MethodDawidSkeneMAP)
	if err != nil {
		t.Fatal(err)
	}
	inputs := emEdgeInputs()
	var wg sync.WaitGroup
	for name, answers := range inputs {
		want := DawidSkeneMAP(answers, MAPOptions{})
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, p := range []Posterior{agg.Aggregate(answers), agg.Aggregate(answers)} {
					for pr, w := range want {
						if math.Float64bits(p[pr]) != math.Float64bits(w) {
							t.Errorf("%s: pair %v posterior %v; a fresh run gives %v", name, pr, p[pr], w)
							return
						}
					}
				}
			}()
		}
	}
	wg.Wait()
}
