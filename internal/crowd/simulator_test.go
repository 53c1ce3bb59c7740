package crowd

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/hitgen"
	"github.com/crowder/crowder/internal/record"
)

// referenceClusterHIT is the map-based cluster-HIT simulator the
// slice-based one replaced, kept as its oracle: per worker it re-reads
// truth and difficulty, closes the judgments with a map-indexed
// union-find, builds the worker's own match set and partitions the HIT
// with hitgen.EntitySizes.
func referenceClusterHIT(s *Simulator, h HIT) hitOutcome {
	cfg := &s.cfg
	ch := hitgen.ClusterHIT{Records: h.Records}
	rng := rand.New(rand.NewSource(hitSeed(cfg.Seed, streamClusterHITs, h.Ord)))
	var o hitOutcome
	for _, w := range pickDistinct(s.pool, h.Assignments, rng) {
		o.workers = append(o.workers, w.ID)
		judged := make([]bool, len(h.Pairs))
		for i, p := range h.Pairs {
			judged[i] = w.AnswerWithDifficulty(s.truth.Has(p.A, p.B), cfg.difficultyOf(p), rng)
		}
		closed := referenceCloseOver(h.Records, h.Pairs, judged)
		own := record.NewPairSet()
		for i, p := range h.Pairs {
			o.answers = append(o.answers, aggregate.Answer{Pair: p, Worker: w.ID, Match: closed[i]})
			if closed[i] {
				own.Add(p.A, p.B)
			}
		}
		comparisons := hitgen.BestOrderComparisons(hitgen.EntitySizes(ch, own))
		o.seconds = append(o.seconds, (baseSeconds+secondsPerClusterComparison*float64(comparisons))*w.Speed)
	}
	o.effort = float64(hitgen.BestOrderComparisons(hitgen.EntitySizes(ch, s.truth))) *
		secondsPerClusterComparison / secondsPerPairComparison
	return o
}

// referenceCloseOver is closeOver's map-indexed union-find.
func referenceCloseOver(records []record.ID, pairs []record.Pair, matched []bool) []bool {
	idx := make(map[record.ID]int, len(records))
	for i, r := range records {
		idx[r] = i
	}
	parent := make([]int, len(records))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i, p := range pairs {
		ia, okA := idx[p.A]
		ib, okB := idx[p.B]
		if matched[i] && okA && okB {
			parent[find(ia)] = find(ib)
		}
	}
	out := make([]bool, len(pairs))
	for i, p := range pairs {
		ia, okA := idx[p.A]
		ib, okB := idx[p.B]
		out[i] = okA && okB && find(ia) == find(ib)
	}
	return out
}

// randomClusterHIT draws a simulator and a cluster HIT of k distinct
// records from seed. The HIT covers a random share of its record pairs
// plus a few pairs with an endpoint outside the records (closeOver's
// not-found path); the truth mixes covered pairs, uncovered pairs
// inside the HIT (they shape the effort's partition only) and pairs
// outside it; and difficulty is either absent or a per-pair draw.
func randomClusterHIT(seed int64, k int) (*Simulator, HIT) {
	rng := rand.New(rand.NewSource(seed))
	universe := rng.Perm(4*k + 4)
	records := make([]record.ID, k)
	for i := range records {
		records[i] = record.ID(universe[i])
	}
	outside := record.ID(universe[k])
	density := rng.Float64()
	truth := record.NewPairSet()
	likelihood := map[record.Pair]float64{}
	var pairs []record.Pair
	for i := range records {
		for j := i + 1; j < len(records); j++ {
			p := record.MakePair(records[i], records[j])
			if rng.Float64() < 0.3 {
				truth.Add(p.A, p.B)
			}
			if rng.Float64() < density {
				pairs = append(pairs, p)
				likelihood[p] = rng.Float64()
			}
		}
	}
	for extra := rng.Intn(3); extra > 0; extra-- {
		p := record.MakePair(records[rng.Intn(k)], outside)
		pairs = append(pairs, p)
		if rng.Intn(2) == 0 {
			truth.Add(p.A, p.B)
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	pop := NewPopulation(seed, PopulationOptions{Size: 12})
	cfg := Config{Seed: seed, Assignments: 1 + rng.Intn(5)}
	if rng.Intn(2) == 0 {
		cfg.Difficulty = DifficultyFromLikelihood(likelihood)
	}
	cfg.defaults()
	s := &Simulator{truth: truth, pool: pop, cfg: cfg}
	return s, HIT{Ord: rng.Intn(1000), Kind: ClusterKind, Records: records, Pairs: pairs, Assignments: cfg.Assignments}
}

// checkClusterHITMatchesReference requires the slice-based simulator to
// reproduce the reference bit for bit: answers, workers, every
// assignment's seconds and the HIT's effort.
func checkClusterHITMatchesReference(t *testing.T, seed int64, k int) {
	t.Helper()
	s, h := randomClusterHIT(seed, k)
	got, want := s.simulateClusterHIT(h), referenceClusterHIT(s, h)
	if !slices.Equal(got.answers, want.answers) || !slices.Equal(got.workers, want.workers) {
		t.Fatalf("seed %d k %d: answers or workers differ from the reference", seed, k)
	}
	bits := func(fs []float64) []uint64 {
		out := make([]uint64, len(fs))
		for i, f := range fs {
			out[i] = math.Float64bits(f)
		}
		return out
	}
	if !slices.Equal(bits(got.seconds), bits(want.seconds)) {
		t.Fatalf("seed %d k %d: seconds %v, reference %v", seed, k, got.seconds, want.seconds)
	}
	if math.Float64bits(got.effort) != math.Float64bits(want.effort) {
		t.Fatalf("seed %d k %d: effort %v, reference %v", seed, k, got.effort, want.effort)
	}
}

func TestClusterHITMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		checkClusterHITMatchesReference(t, seed, 1+int(seed%30))
	}
}

func FuzzClusterHITSimulation(f *testing.F) {
	for _, k := range []uint8{1, 2, 10, 30} {
		f.Add(int64(k), k)
	}
	f.Fuzz(func(t *testing.T, seed int64, k uint8) {
		checkClusterHITMatchesReference(t, seed, 1+int(k%30))
	})
}

// closeOver's entity sizes are the partition hitgen.EntitySizes finds
// over the pairs it closes to a match.
func TestCloseOverEntitySizes(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, h := randomClusterHIT(seed, 1+rng.Intn(30))
		matched := make([]bool, len(h.Pairs))
		for i := range matched {
			matched[i] = rng.Intn(3) == 0
		}
		closed, sizes := closeOver(h.Records, h.Pairs, matched)
		if !slices.Equal(closed, referenceCloseOver(h.Records, h.Pairs, matched)) {
			t.Fatalf("seed %d: closure differs from the reference", seed)
		}
		own := record.NewPairSet()
		for i, p := range h.Pairs {
			if closed[i] {
				own.Add(p.A, p.B)
			}
		}
		slices.Sort(sizes)
		if want := hitgen.EntitySizes(hitgen.ClusterHIT{Records: h.Records}, own); !slices.Equal(sizes, want) {
			t.Fatalf("seed %d: sizes %v, EntitySizes %v", seed, sizes, want)
		}
	}
}
