package learn

import (
	"math/rand"
	"testing"

	"github.com/crowder/crowder/internal/record"
)

func TestTrainSVMSeparable(t *testing.T) {
	// Linearly separable in 2D: matches cluster near (1,1), non-matches
	// near (0,0).
	rng := rand.New(rand.NewSource(1))
	var ex []Example
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			ex = append(ex, Example{X: []float64{0.8 + 0.2*rng.Float64(), 0.8 + 0.2*rng.Float64()}, Label: 1})
		} else {
			ex = append(ex, Example{X: []float64{0.2 * rng.Float64(), 0.2 * rng.Float64()}, Label: -1})
		}
	}
	m, err := TrainSVM(ex, 1)
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, e := range ex {
		if predict(m, e.X) == e.Label {
			correct++
		}
	}
	if correct < 195 {
		t.Fatalf("separable accuracy %d/200; want >= 195", correct)
	}
}

func TestTrainSVMScoreOrdersClasses(t *testing.T) {
	var ex []Example
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 300; i++ {
		x := rng.Float64()
		label := -1.0
		if x > 0.5 {
			label = 1
		}
		// 10% label noise.
		if rng.Intn(10) == 0 {
			label = -label
		}
		ex = append(ex, Example{X: []float64{x}, Label: label})
	}
	m, err := TrainSVM(ex, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Score([]float64{0.95}) <= m.Score([]float64{0.05}) {
		t.Fatal("score should increase with the informative feature")
	}
}

func TestTrainSVMErrors(t *testing.T) {
	if _, err := TrainSVM(nil, 0); err == nil {
		t.Fatal("empty training set should error")
	}
	bad := []Example{{X: []float64{1}, Label: 0.5}}
	if _, err := TrainSVM(bad, 0); err == nil {
		t.Fatal("invalid label should error")
	}
	dims := []Example{{X: []float64{1}, Label: 1}, {X: []float64{1, 2}, Label: -1}}
	if _, err := TrainSVM(dims, 0); err == nil {
		t.Fatal("inconsistent dimensions should error")
	}
}

// A training set of one class trains (there is no ratio to balance) and
// places that class on its side of the margin: the active loop trains
// on such a set when the whole pool holds one class.
func TestTrainSVMSingleClass(t *testing.T) {
	for _, label := range []float64{1, -1} {
		ex := []Example{{X: []float64{0.2}, Label: label}, {X: []float64{0.9}, Label: label}}
		m, err := TrainSVM(ex, 4)
		if err != nil {
			t.Fatalf("label %v: %v", label, err)
		}
		for _, e := range ex {
			if predict(m, e.X) != label {
				t.Errorf("label %v: example %v scored %v", label, e.X, m.Score(e.X))
			}
		}
	}
}

func TestTrainSVMBalanced(t *testing.T) {
	// 10:1 imbalance: without class balancing, the classifier can
	// degenerate to all-negative; with it it must recover positives.
	rng := rand.New(rand.NewSource(3))
	var ex []Example
	for i := 0; i < 40; i++ {
		ex = append(ex, Example{X: []float64{0.7 + 0.3*rng.Float64()}, Label: 1})
	}
	for i := 0; i < 400; i++ {
		ex = append(ex, Example{X: []float64{0.5 * rng.Float64()}, Label: -1})
	}
	m, err := TrainSVM(ex, 3)
	if err != nil {
		t.Fatal(err)
	}
	tp := 0
	for _, e := range ex[:40] {
		if predict(m, e.X) == 1 {
			tp++
		}
	}
	if tp < 30 {
		t.Fatalf("balanced training recovered %d/40 positives; want >= 30", tp)
	}
}

func TestTrainSVMDeterministic(t *testing.T) {
	ex := []Example{
		{X: []float64{1, 0}, Label: 1},
		{X: []float64{0, 1}, Label: -1},
		{X: []float64{0.9, 0.1}, Label: 1},
		{X: []float64{0.1, 0.9}, Label: -1},
	}
	m1, _ := TrainSVM(ex, 9)
	m2, _ := TrainSVM(ex, 9)
	for j := range m1.W {
		if m1.W[j] != m2.W[j] {
			t.Fatal("same seed produced different weights")
		}
	}
	if m1.B != m2.B {
		t.Fatal("same seed produced different bias")
	}
}

func TestFeatureVectorDimensions(t *testing.T) {
	tab := record.NewTable("name", "address", "city", "type")
	a := tab.Append("oceana", "55 e. 54th st.", "new york", "seafood")
	b := tab.Append("oceana restaurant", "55 east 54th street", "new york", "seafood")
	p := record.MakePair(a, b)
	// Restaurant: 2 similarity functions × 4 attributes = 8 dims.
	fv := FeatureVector(tab, p, []int{0, 1, 2, 3})
	if len(fv) != 8 {
		t.Fatalf("feature dims = %d; want 8", len(fv))
	}
	for i, v := range fv {
		if v < 0 || v > 1 {
			t.Fatalf("feature %d = %v outside [0,1]", i, v)
		}
	}
	// Identical city/type attributes → perfect similarity features.
	if fv[4] != 1 || fv[5] != 1 || fv[6] != 1 || fv[7] != 1 {
		t.Errorf("identical attribute features should be 1: %v", fv)
	}
}

func TestFeatureVectorSingleAttr(t *testing.T) {
	tab := record.NewTable("name", "price")
	a := tab.Append("apple ipod touch 8gb", "$229")
	b := tab.Append("apple ipod touch 8 gb black", "$199")
	fv := FeatureVector(tab, record.MakePair(a, b), []int{0})
	// Product: 2 similarity functions × 1 attribute = 2 dims.
	if len(fv) != 2 {
		t.Fatalf("feature dims = %d; want 2", len(fv))
	}
}

// predict thresholds the margin at zero: +1 for a match, −1 otherwise.
func predict(m *SVM, x []float64) float64 {
	if m.Score(x) >= 0 {
		return 1
	}
	return -1
}
