package aggregate

import (
	"maps"
	"slices"

	"github.com/crowder/crowder/internal/record"
)

// CalibrationBucket is one posterior bin of a calibration report: the
// pairs whose posterior fell in [Lo, Hi), the mean posterior the
// aggregator claimed for them, and the fraction that are true matches
// under the reference truth. A calibrated aggregator has MeanPosterior ≈
// EmpiricalPrecision in every populated bucket; the sparse-coverage
// degeneracy shows up as a high-posterior bucket with near-zero
// empirical precision.
type CalibrationBucket struct {
	Lo                 float64 `json:"lo"`
	Hi                 float64 `json:"hi"`
	Pairs              int     `json:"pairs"`
	MeanPosterior      float64 `json:"mean_posterior"`
	EmpiricalPrecision float64 `json:"empirical_precision"`
}

// Calibration buckets a posterior into n equal-width bins against a
// reference truth — the posterior-vs-empirical-precision report that
// shows the sparse-coverage degeneracy. The top bucket is closed
// ([1−1/n, 1]) so posterior 1.0 lands in it. Empty buckets are reported
// with zero counts, keeping the layout fixed for diffing across runs.
// Pairs are summed in canonical order, so the report is a pure function
// of the posterior, to the last bit of every mean.
func Calibration(post Posterior, truth func(record.Pair) bool, n int) []CalibrationBucket {
	if n <= 0 {
		n = 10
	}
	buckets := make([]CalibrationBucket, n)
	width := 1.0 / float64(n)
	for i := range buckets {
		buckets[i].Lo = float64(i) * width
		buckets[i].Hi = float64(i+1) * width
	}
	sums := make([]float64, n)
	hits := make([]int, n)
	for _, pr := range slices.SortedFunc(maps.Keys(post), record.ComparePairs) {
		p := post[pr]
		i := int(p / width)
		if i >= n {
			i = n - 1
		}
		if i < 0 {
			i = 0
		}
		buckets[i].Pairs++
		sums[i] += p
		if truth(pr) {
			hits[i]++
		}
	}
	for i := range buckets {
		if buckets[i].Pairs > 0 {
			buckets[i].MeanPosterior = sums[i] / float64(buckets[i].Pairs)
			buckets[i].EmpiricalPrecision = float64(hits[i]) / float64(buckets[i].Pairs)
		}
	}
	return buckets
}
