package eval

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/crowder/crowder/internal/record"
)

func mk(a, b int) record.Pair { return record.MakePair(record.ID(a), record.ID(b)) }

func TestF1(t *testing.T) {
	if got := F1(1, 1); got != 1 {
		t.Errorf("F1(1,1) = %v; want 1", got)
	}
	if got := F1(0, 0); got != 0 {
		t.Errorf("F1(0,0) = %v; want 0", got)
	}
	if got := F1(0.5, 1); math.Abs(got-2.0/3.0) > 1e-12 {
		t.Errorf("F1(0.5,1) = %v; want 2/3", got)
	}
}

func TestPrecisionRecallAt(t *testing.T) {
	truth := record.NewPairSet(mk(0, 1), mk(2, 3), mk(4, 5))
	ranked := []record.Pair{mk(0, 1), mk(0, 2), mk(2, 3), mk(1, 3)}
	p, r := PrecisionRecallAt(ranked, truth, truth.Len(), 3)
	if math.Abs(p-2.0/3.0) > 1e-12 {
		t.Errorf("precision = %v; want 2/3", p)
	}
	if math.Abs(r-2.0/3.0) > 1e-12 {
		t.Errorf("recall = %v; want 2/3", r)
	}
	// n beyond list length clamps.
	p, r = PrecisionRecallAt(ranked, truth, truth.Len(), 100)
	if math.Abs(p-0.5) > 1e-12 || math.Abs(r-2.0/3.0) > 1e-12 {
		t.Errorf("clamped p, r = %v, %v", p, r)
	}
	// Degenerate inputs.
	if p, r := PrecisionRecallAt(nil, truth, 3, 5); p != 0 || r != 0 {
		t.Error("empty ranked list should give 0, 0")
	}
}

func TestPRCurve(t *testing.T) {
	truth := record.NewPairSet(mk(0, 1), mk(2, 3))
	ranked := []record.Pair{mk(0, 1), mk(9, 8), mk(2, 3)}
	pts := PRCurve(ranked, truth, 2)
	// Points at each true match (n=1, n=3) plus the terminal point (n=3).
	if len(pts) != 3 {
		t.Fatalf("got %d points; want 3", len(pts))
	}
	if pts[0].Precision != 1 || pts[0].Recall != 0.5 {
		t.Errorf("first point = %+v", pts[0])
	}
	if math.Abs(pts[1].Precision-2.0/3.0) > 1e-12 || pts[1].Recall != 1 {
		t.Errorf("second point = %+v", pts[1])
	}
}

func TestPRCurveEmpty(t *testing.T) {
	if pts := PRCurve(nil, record.NewPairSet(), 0); len(pts) != 0 {
		t.Errorf("empty inputs should give no points; got %v", pts)
	}
}

func TestAUCPRPerfect(t *testing.T) {
	// Perfect ranking: all matches first → AUC = 1.
	truth := record.NewPairSet(mk(0, 1), mk(2, 3))
	ranked := []record.Pair{mk(0, 1), mk(2, 3), mk(5, 6)}
	pts := PRCurve(ranked, truth, 2)
	if auc := AUCPR(pts); auc < 0.99 {
		t.Errorf("perfect AUC = %v; want ~1", auc)
	}
}

func TestAUCPRWorseRankingScoresLower(t *testing.T) {
	truth := record.NewPairSet(mk(0, 1), mk(2, 3))
	good := []record.Pair{mk(0, 1), mk(2, 3), mk(5, 6), mk(7, 8)}
	bad := []record.Pair{mk(5, 6), mk(7, 8), mk(0, 1), mk(2, 3)}
	if AUCPR(PRCurve(good, truth, 2)) <= AUCPR(PRCurve(bad, truth, 2)) {
		t.Error("better ranking should have higher AUC")
	}
}

func TestPrecisionAtRecall(t *testing.T) {
	pts := []PRPoint{
		{N: 1, Precision: 1.0, Recall: 0.25},
		{N: 5, Precision: 0.8, Recall: 0.75},
		{N: 20, Precision: 0.4, Recall: 1.0},
	}
	if got := PrecisionAtRecall(pts, 0.5); got != 0.8 {
		t.Errorf("P@R(0.5) = %v; want 0.8", got)
	}
	if got := PrecisionAtRecall(pts, 0.9); got != 0.4 {
		t.Errorf("P@R(0.9) = %v; want 0.4", got)
	}
	if got := PrecisionAtRecall(pts, 1.1); got != 0 {
		t.Errorf("P@R beyond max = %v; want 0", got)
	}
}

func TestMaxRecall(t *testing.T) {
	pts := []PRPoint{{Recall: 0.3}, {Recall: 0.92}, {Recall: 0.7}}
	if got := MaxRecall(pts); got != 0.92 {
		t.Errorf("MaxRecall = %v; want 0.92", got)
	}
}

func TestPRCurveNoMatches(t *testing.T) {
	// A dataset without true matches: recall is 0, not 0/0, so the AUC is
	// 0 rather than NaN.
	ranked := []record.Pair{mk(0, 1), mk(2, 3)}
	pts := PRCurve(ranked, record.NewPairSet(), 0)
	if len(pts) != 1 || pts[0].N != 2 || pts[0].Precision != 0 || pts[0].Recall != 0 {
		t.Fatalf("PRCurve = %+v; want one point {N:2 Precision:0 Recall:0}", pts)
	}
	// Inconsistent input (a match in the truth set, totalMatches 0) takes
	// the same convention instead of +Inf.
	pts = PRCurve(ranked, record.NewPairSet(mk(0, 1)), 0)
	for _, pt := range pts {
		if pt.Recall != 0 {
			t.Fatalf("PRCurve = %+v; want recall 0 throughout", pts)
		}
	}
	if auc := AUCPR(pts); auc != 0 {
		t.Errorf("AUCPR = %v; want 0", auc)
	}
}

// Property: precision and recall stay in [0,1]; recall is monotone
// non-decreasing along the curve.
func TestPRCurveProperty(t *testing.T) {
	f := func(seedTruth, seedRank []uint8) bool {
		truth := record.NewPairSet()
		for i := 0; i+1 < len(seedTruth); i += 2 {
			truth.Add(record.ID(seedTruth[i]%16), record.ID(seedTruth[i+1]%16))
		}
		var ranked []record.Pair
		seen := record.NewPairSet()
		for i := 0; i+1 < len(seedRank); i += 2 {
			a, b := record.ID(seedRank[i]%16), record.ID(seedRank[i+1]%16)
			if a == b || seen.Has(a, b) {
				continue
			}
			seen.Add(a, b)
			ranked = append(ranked, record.MakePair(a, b))
		}
		total := truth.Len()
		if total == 0 {
			return true
		}
		pts := PRCurve(ranked, truth, total)
		prevR := 0.0
		for _, pt := range pts {
			if pt.Precision < 0 || pt.Precision > 1 || pt.Recall < 0 || pt.Recall > 1 {
				return false
			}
			if pt.Recall < prevR {
				return false
			}
			prevR = pt.Recall
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
