package aggregate

import (
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/crowder/crowder/internal/record"
)

func TestCalibrationBuckets(t *testing.T) {
	post := Posterior{
		mk(0, 1): 0.95, mk(2, 3): 0.97, // top bucket: one true, one false
		mk(4, 5): 1.0,  // boundary posterior must land in the top bucket
		mk(6, 7): 0.05, // bottom bucket, not a match
		mk(8, 9): 0.55,
	}
	truth := func(p record.Pair) bool {
		return p == mk(0, 1) || p == mk(4, 5) || p == mk(8, 9)
	}
	buckets := Calibration(post, truth, 10)
	if len(buckets) != 10 {
		t.Fatalf("got %d buckets; want 10", len(buckets))
	}
	top := buckets[9]
	if top.Pairs != 3 {
		t.Fatalf("top bucket holds %d pairs; want 3 (incl. posterior 1.0): %+v", top.Pairs, top)
	}
	if want := (0.95 + 0.97 + 1.0) / 3; math.Abs(top.MeanPosterior-want) > 1e-12 {
		t.Errorf("top bucket mean posterior = %v; want %v", top.MeanPosterior, want)
	}
	if want := 2.0 / 3; math.Abs(top.EmpiricalPrecision-want) > 1e-12 {
		t.Errorf("top bucket empirical precision = %v; want %v", top.EmpiricalPrecision, want)
	}
	if b := buckets[0]; b.Pairs != 1 || b.EmpiricalPrecision != 0 {
		t.Errorf("bottom bucket = %+v; want exactly the 0.05 non-match", b)
	}
	if b := buckets[5]; b.Pairs != 1 || b.EmpiricalPrecision != 1 {
		t.Errorf("bucket [0.5,0.6) = %+v; want exactly the 0.55 match", b)
	}
	// Empty buckets keep the layout with zero counts.
	if b := buckets[3]; b.Pairs != 0 || b.MeanPosterior != 0 || b.EmpiricalPrecision != 0 {
		t.Errorf("empty bucket = %+v; want zeros", b)
	}
	for i, b := range buckets {
		if want := float64(i) / 10; math.Abs(b.Lo-want) > 1e-12 {
			t.Errorf("bucket %d Lo = %v; want %v", i, b.Lo, want)
		}
	}
}

func TestCalibrationDefaultsBucketCount(t *testing.T) {
	post := Posterior{mk(0, 1): 0.2}
	if got := len(Calibration(post, func(record.Pair) bool { return false }, 0)); got != 10 {
		t.Errorf("n<=0 should default to 10 buckets; got %d", got)
	}
}

// The degeneracy is visible in the calibration report before it is
// visible in F1: the plain estimator publishes the inverted pair in a
// high-posterior bucket with broken empirical precision, the MAP
// aggregator keeps every populated high bucket clean.
func TestCalibrationExposesDegeneracy(t *testing.T) {
	answers, falsePair, _ := sparseDegeneracyAnswers()
	truth := func(p record.Pair) bool { return p != falsePair }

	dsTop := Calibration(DawidSkene(answers, DawidSkeneOptions{}), truth, 10)[9]
	if dsTop.EmpiricalPrecision >= 1 {
		t.Errorf("plain DS top bucket precision = %v; the pinned degeneracy should pollute it", dsTop.EmpiricalPrecision)
	}
	for i, b := range Calibration(DawidSkeneMAP(answers, MAPOptions{}), truth, 10) {
		if b.Lo >= 0.5 && b.Pairs > 0 && b.EmpiricalPrecision < 1 {
			t.Errorf("MAP bucket %d (%+v) holds non-matches above the decision boundary", i, b)
		}
	}
}

// Calibration sums each bucket in canonical pair order: two calls on one
// posterior agree to the last bit, and each mean is the canonical-order
// sum over its bucket.
func TestCalibrationOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	post := Posterior{}
	for i := 0; i < 2000; i++ {
		post[mk(2*i, 2*i+1)] = rng.Float64()
	}
	truth := func(p record.Pair) bool { return p.A%6 == 0 }
	first, second := Calibration(post, truth, 10), Calibration(post, truth, 10)
	var sums [10]float64
	for _, p := range slices.SortedFunc(maps.Keys(post), record.ComparePairs) {
		sums[int(post[p]*10)] += post[p]
	}
	for i := range first {
		want := sums[i] / float64(first[i].Pairs)
		if math.Float64bits(first[i].MeanPosterior) != math.Float64bits(want) || math.Float64bits(second[i].MeanPosterior) != math.Float64bits(want) {
			t.Errorf("bucket %d mean posterior %v then %v; canonical-order sum gives %v", i, first[i].MeanPosterior, second[i].MeanPosterior, want)
		}
	}
}
