package learn

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"github.com/crowder/crowder/internal/record"
)

// referencePegasos is Pegasos as the textbook loop writes it: a fresh
// rand.Perm per epoch over the Example slice, then shrink, hinge step
// and projection as three passes over the weights, from the weights w
// (bias last) after t earlier steps. The training matrix, the reused
// permutation buffer and the fused pass must not change a bit of its
// output.
func referencePegasos(examples []Example, w []float64, t int, seed int64, epochs int) *SVM {
	dim := len(examples[0].X)
	pos, neg := 0, 0
	for _, e := range examples {
		if e.Label == 1 {
			pos++
		} else {
			neg++
		}
	}
	var posW, negW float64 = 1, 1
	if pos > 0 && neg > 0 {
		if neg > pos {
			posW = float64(neg) / float64(pos)
		} else {
			negW = float64(pos) / float64(neg)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	w = slices.Clone(w)
	bound := 1 / math.Sqrt(svmLambda)
	for epoch := 0; epoch < epochs; epoch++ {
		for _, idx := range rng.Perm(len(examples)) {
			t++
			e := examples[idx]
			eta := 1 / (svmLambda * float64(t))
			margin := e.Label * (dot(w[:dim], e.X) + w[dim])
			shrink := max(1-eta*svmLambda, 0)
			for j := range w {
				w[j] *= shrink
			}
			if margin < 1 {
				cw := posW
				if e.Label < 0 {
					cw = negW
				}
				step := eta * cw * e.Label
				for j := 0; j < dim; j++ {
					w[j] += step * e.X[j]
				}
				w[dim] += step
			}
			if norm := math.Sqrt(dot(w, w)); norm > bound {
				for j := range w {
					w[j] *= bound / norm
				}
			}
		}
	}
	return &SVM{W: w[:dim], B: w[dim]}
}

func TestTrainSVMMatchesTextbookLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, tc := range []struct{ n, dim, posEvery int }{{1, 1, 1}, {7, 3, 2}, {200, 5, 9}, {500, 11, 3}} {
		var ex []Example
		for i := 0; i < tc.n; i++ {
			x := make([]float64, tc.dim)
			for j := range x {
				x[j] = rng.Float64()
			}
			label := -1.0
			if i%tc.posEvery == 0 {
				label = 1
				x[0] += 0.5
			}
			ex = append(ex, Example{X: x, Label: label})
		}
		for _, seed := range []int64{0, 1, 42} {
			got, err := TrainSVM(ex, seed)
			if err != nil {
				t.Fatal(err)
			}
			want := referencePegasos(ex, make([]float64, tc.dim+1), 0, seed, svmEpochs)
			if !sameBits(got.W, want.W) || !sameBits([]float64{got.B}, []float64{want.B}) {
				t.Fatalf("n=%d dim=%d seed=%d: TrainSVM %v %v; textbook loop %v %v", tc.n, tc.dim, seed, got.W, got.B, want.W, want.B)
			}
		}
	}
}

func reversed(labels []Label) []Label {
	out := slices.Clone(labels)
	slices.Reverse(out)
	return out
}

// update runs Features.Update on a fresh memo.
func update(t *testing.T, tab *record.Table, prev *Learner, labels []Label, seed int64) *Learner {
	t.Helper()
	l, err := NewFeatures(tab).Update(prev, labels, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func train(t *testing.T, tab *record.Table, labels []Label, seed int64) *Learner {
	t.Helper()
	l, err := Train(tab, labels, Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// An unchanged label set — in any order — trains nothing: Update hands
// back the previous learner itself, ready or not.
func TestUpdateSkipsUnchangedLabels(t *testing.T) {
	tab, labels := routerFixture(40)
	l := update(t, tab, nil, labels, 3)
	if !l.Ready() {
		t.Fatal("fixture should train a ready learner")
	}
	if again := update(t, tab, l, reversed(labels), 3); again != l {
		t.Error("Update retrained on an unchanged label set")
	}
	few := update(t, tab, nil, labels[:6], 3)
	if few.Ready() || update(t, tab, few, labels[:6], 3) != few {
		t.Error("Update retrained an unready learner on an unchanged label set")
	}
	// One flipped class is a different set, though the count is equal.
	flipped := slices.Clone(labels)
	flipped[7].Match = !flipped[7].Match
	if update(t, tab, l, flipped, 3) == l {
		t.Error("Update kept the learner over a label whose class flipped")
	}
}

// The full train Update falls back to is Train, bit for bit: with no
// ready predecessor, on a shrunken set, and once the set has grown by a
// quarter since the last full train.
func TestUpdateFullTrainEqualsTrain(t *testing.T) {
	tab, labels := routerFixture(60)
	prev := train(t, tab, labels[:80], 5)
	for name, tc := range map[string]struct {
		prev   *Learner
		labels []Label
	}{
		"no predecessor": {nil, labels[:80]},
		"unready":        {train(t, tab, labels[:6], 5), labels[:80]},
		"shrunk":         {prev, labels[:78]},
		"grown 25%":      {prev, labels[:100]},
		"grown 50%":      {prev, labels[:120]},
	} {
		got := update(t, tab, tc.prev, tc.labels, 5)
		if !reflect.DeepEqual(got, train(t, tab, tc.labels, 5)) {
			t.Errorf("%s: Update differs from Train", name)
		}
		if s := got.State(); s.Full != len(tc.labels) || s.T != svmEpochs*len(tc.labels) {
			t.Errorf("%s: full train state %+v", name, s)
		}
	}
}

// Below a quarter's growth Update takes one warm Pegasos epoch: from the
// previous weights and step counter, over every current label in
// canonical order, in the order seeded by (seed, t) — the textbook loop
// run from there, bit for bit — and deterministic in (prev, labels,
// seed).
func TestUpdateWarmStep(t *testing.T) {
	tab, labels := routerFixture(60)
	prev := train(t, tab, labels[:80], 5)
	// Two mislabelled pairs violate the margin, so the hinge steps — and
	// with them the example order — count.
	next := slices.Clone(labels[:98])
	next[83].Match, next[94].Match = !next[83].Match, !next[94].Match
	warm := update(t, tab, prev, next, 5)
	ps, s := prev.State(), warm.State()
	if s.T != ps.T+len(next) || s.Full != 80 || s.N != len(next) {
		t.Fatalf("warm state %+v after %+v", s, ps)
	}
	sorted, _ := canonical(next)
	var ex []Example
	for _, l := range sorted {
		y := -1.0
		if l.Match {
			y = 1
		}
		ex = append(ex, Example{X: NewFeatures(tab).compute(nil, l.Pair), Label: y})
	}
	want := referencePegasos(ex, append(slices.Clone(ps.W), ps.B), ps.T, 5+int64(ps.T), 1)
	if !sameBits(s.W, want.W) || !sameBits([]float64{s.B}, []float64{want.B}) {
		t.Fatalf("warm step %v %v; textbook epoch %v %v", s.W, s.B, want.W, want.B)
	}
	if again := update(t, tab, prev, reversed(next), 5); !reflect.DeepEqual(again, warm) {
		t.Error("warm step differs across memos and label order")
	}
	if other := update(t, tab, prev, next, 6); reflect.DeepEqual(other.State(), s) {
		t.Error("warm step ignores the seed")
	}
	if reflect.DeepEqual(warm, train(t, tab, next, 5)) {
		t.Error("warm step equals a full train; the test is vacuous")
	}
}

// A journaled State, round-tripped through JSON, restores its learner
// bit for bit over the labels it was trained on, and over any other set
// runs the step Update would have run from it. A zero State restores as
// a full train; a model whose width is not the table's is an error.
func TestRestore(t *testing.T) {
	tab, labels := routerFixture(60)
	prev := train(t, tab, labels[:80], 5)
	warm := update(t, tab, prev, labels[:90], 5)
	restore := func(l *Learner, labels []Label) *Learner {
		t.Helper()
		var s State
		if l != nil {
			b, err := json.Marshal(l.State())
			if err != nil {
				t.Fatal(err)
			}
			if err := json.Unmarshal(b, &s); err != nil {
				t.Fatal(err)
			}
		}
		r, err := NewFeatures(tab).Restore(s, labels, Options{Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	unready := train(t, tab, labels[:6], 5)
	for name, tc := range map[string]struct {
		from   *Learner
		labels []Label
		want   *Learner
	}{
		"full, same labels":    {prev, labels[:80], prev},
		"warm, same labels":    {warm, labels[:90], warm},
		"unready, same labels": {unready, labels[:6], unready},
		"warm, more labels":    {prev, labels[:90], warm},
		"full, many more":      {prev, labels[:110], train(t, tab, labels[:110], 5)},
		"never journaled":      {nil, labels[:90], train(t, tab, labels[:90], 5)},
	} {
		if got := restore(tc.from, tc.labels); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: restored learner differs", name)
		}
	}
	bad := *prev.State()
	bad.W = bad.W[:3]
	if _, err := NewFeatures(tab).Restore(bad, labels[:80], Options{Seed: 5}); err == nil {
		t.Error("a journaled model of the wrong width restored")
	}
}
