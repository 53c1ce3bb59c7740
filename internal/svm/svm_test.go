package svm

import (
	"math/rand"
	"testing"

	"github.com/crowder/crowder/internal/record"
)

func TestTrainSeparable(t *testing.T) {
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
	m, err := Train(ex, TrainOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for _, e := range ex {
		if m.Predict(e.X) == e.Label {
			correct++
		}
	}
	if correct < 195 {
		t.Fatalf("separable accuracy %d/200; want >= 195", correct)
	}
}

func TestTrainScoreOrdersClasses(t *testing.T) {
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
	m, err := Train(ex, TrainOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Score([]float64{0.95}) <= m.Score([]float64{0.05}) {
		t.Fatal("score should increase with the informative feature")
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, TrainOptions{}); err == nil {
		t.Fatal("empty training set should error")
	}
	bad := []Example{{X: []float64{1}, Label: 0.5}}
	if _, err := Train(bad, TrainOptions{}); err == nil {
		t.Fatal("invalid label should error")
	}
	dims := []Example{{X: []float64{1}, Label: 1}, {X: []float64{1, 2}, Label: -1}}
	if _, err := Train(dims, TrainOptions{}); err == nil {
		t.Fatal("inconsistent dimensions should error")
	}
}

func TestTrainBalanced(t *testing.T) {
	// 10:1 imbalance: without balancing, the classifier can degenerate to
	// all-negative; with balancing it must recover positives.
	rng := rand.New(rand.NewSource(3))
	var ex []Example
	for i := 0; i < 40; i++ {
		ex = append(ex, Example{X: []float64{0.7 + 0.3*rng.Float64()}, Label: 1})
	}
	for i := 0; i < 400; i++ {
		ex = append(ex, Example{X: []float64{0.5 * rng.Float64()}, Label: -1})
	}
	m, err := Train(ex, TrainOptions{Seed: 3, BalanceClasses: true})
	if err != nil {
		t.Fatal(err)
	}
	tp := 0
	for _, e := range ex[:40] {
		if m.Predict(e.X) == 1 {
			tp++
		}
	}
	if tp < 30 {
		t.Fatalf("balanced training recovered %d/40 positives; want >= 30", tp)
	}
}

func TestTrainDeterministic(t *testing.T) {
	ex := []Example{
		{X: []float64{1, 0}, Label: 1},
		{X: []float64{0, 1}, Label: -1},
		{X: []float64{0.9, 0.1}, Label: 1},
		{X: []float64{0.1, 0.9}, Label: -1},
	}
	m1, _ := Train(ex, TrainOptions{Seed: 9})
	m2, _ := Train(ex, TrainOptions{Seed: 9})
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
