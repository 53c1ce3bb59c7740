package crowd

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/crowder/crowder/internal/record"
)

// A HIT that carries its pairs' likelihoods simulates exactly as one
// whose config looks the same likelihoods up in a map: the same answers,
// workers and seconds, for cluster and pair HITs alike.
func TestCarriedLikelihoodsMatchDifficultyMap(t *testing.T) {
	same := func(a, b hitOutcome) bool {
		bits := func(fs []float64) []uint64 {
			out := make([]uint64, len(fs))
			for i, f := range fs {
				out[i] = math.Float64bits(f)
			}
			return out
		}
		return slices.Equal(a.answers, b.answers) && slices.Equal(a.workers, b.workers) &&
			slices.Equal(bits(a.seconds), bits(b.seconds)) && math.Float64bits(a.effort) == math.Float64bits(b.effort)
	}
	for seed := int64(0); seed < 100; seed++ {
		s, cluster := randomClusterHIT(seed, 1+int(seed%20))
		pair := HIT{Ord: cluster.Ord, Kind: PairKind, Pairs: cluster.Pairs, Assignments: cluster.Assignments}
		rng := rand.New(rand.NewSource(seed))
		likelihood := map[record.Pair]float64{}
		carried := make([]float64, len(cluster.Pairs))
		for i, p := range cluster.Pairs {
			carried[i] = rng.Float64()
			likelihood[p] = carried[i]
		}
		s.cfg.Difficulty = DifficultyFromLikelihood(likelihood)
		wantCluster, wantPair := s.simulateClusterHIT(cluster), s.simulatePairHIT(pair)
		s.cfg.Difficulty = DifficultyFromLikelihood(nil)
		cluster.Likelihoods, pair.Likelihoods = carried, carried
		if !same(s.simulateClusterHIT(cluster), wantCluster) {
			t.Fatalf("seed %d: cluster HIT with carried likelihoods differs from the map's", seed)
		}
		if !same(s.simulatePairHIT(pair), wantPair) {
			t.Fatalf("seed %d: pair HIT with carried likelihoods differs from the map's", seed)
		}
	}
}
