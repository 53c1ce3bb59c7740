// Package eval computes the quality metrics of Section 7.3: precision,
// recall, F1, and precision-recall curves over ranked lists of record
// pairs ("the first n pairs are identified as matching pairs; to plot the
// precision-recall curve, we vary n").
package eval

import "github.com/crowder/crowder/internal/record"

// PRPoint is one point of a precision-recall curve.
type PRPoint struct {
	// N is the cutoff: the first N ranked pairs are declared matches.
	N int
	// Precision is the fraction of declared matches that are correct.
	Precision float64
	// Recall is the fraction of all true matches that were declared.
	Recall float64
}

// F1 returns the harmonic mean of precision and recall.
func F1(precision, recall float64) float64 {
	if precision+recall == 0 {
		return 0
	}
	return 2 * precision * recall / (precision + recall)
}

// PrecisionRecallAt evaluates precision and recall when the first n pairs
// of the ranked list are declared matches. totalMatches is the number of
// true matching pairs in the dataset (the recall denominator).
func PrecisionRecallAt(ranked []record.Pair, truth record.PairSet, totalMatches, n int) (precision, recall float64) {
	if n > len(ranked) {
		n = len(ranked)
	}
	if n == 0 || totalMatches == 0 {
		return 0, 0
	}
	correct := 0
	for _, p := range ranked[:n] {
		if truth.Has(p.A, p.B) {
			correct++
		}
	}
	return float64(correct) / float64(n), float64(correct) / float64(totalMatches)
}

// PRCurve sweeps the cutoff n over the ranked list and returns the curve.
// Points are emitted at every position where a true match is encountered
// (the standard construction: precision is recorded at each recall step),
// plus the final point at n = len(ranked). With totalMatches = 0 every
// recall is 0, the convention PrecisionRecallAt follows.
func PRCurve(ranked []record.Pair, truth record.PairSet, totalMatches int) []PRPoint {
	recall := func(correct int) float64 {
		if totalMatches == 0 {
			return 0
		}
		return float64(correct) / float64(totalMatches)
	}
	var points []PRPoint
	correct := 0
	for i, p := range ranked {
		if truth.Has(p.A, p.B) {
			correct++
			points = append(points, PRPoint{
				N:         i + 1,
				Precision: float64(correct) / float64(i+1),
				Recall:    recall(correct),
			})
		}
	}
	if len(ranked) > 0 {
		points = append(points, PRPoint{
			N:         len(ranked),
			Precision: float64(correct) / float64(len(ranked)),
			Recall:    recall(correct),
		})
	}
	return points
}

// AUCPR returns the area under the precision-recall curve by trapezoidal
// integration over recall, a single-number summary used to compare
// techniques in tests and ablations.
func AUCPR(points []PRPoint) float64 {
	var auc, prevR, prevP float64
	first := true
	for _, pt := range points {
		if first {
			auc += pt.Recall * pt.Precision
			first = false
		} else if pt.Recall > prevR {
			auc += (pt.Recall - prevR) * (pt.Precision + prevP) / 2
		}
		prevR, prevP = pt.Recall, pt.Precision
	}
	return auc
}

// PrecisionAtRecall interpolates the maximum precision achieved at or
// beyond the given recall level, or 0 if the curve never reaches it.
func PrecisionAtRecall(points []PRPoint, recall float64) float64 {
	best := 0.0
	for _, pt := range points {
		if pt.Recall >= recall && pt.Precision > best {
			best = pt.Precision
		}
	}
	return best
}

// MaxRecall returns the highest recall the curve attains.
func MaxRecall(points []PRPoint) float64 {
	best := 0.0
	for _, pt := range points {
		if pt.Recall > best {
			best = pt.Recall
		}
	}
	return best
}
