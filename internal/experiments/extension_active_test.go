package experiments

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/eval"
	"github.com/crowder/crowder/internal/learn"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/simjoin"
)

func TestActiveLearnBudgetAndPoolExhaustion(t *testing.T) {
	d := dataset.RestaurantN(7, 300, 40)
	pool := simjoin.Pairs(simjoin.Join(d.Table, simjoin.Options{Threshold: 0.1}))
	attrs := []int{0, 1, 2, 3}
	// A pool larger than the budget: the seed plus every round's batch.
	ranked, labels, err := activeLearn(d.Table, pool, d.Matches, attrs, 1, 20, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if labels != 20+5*20 {
		t.Errorf("labels = %d; want 120", labels)
	}
	if len(ranked) != len(pool) {
		t.Errorf("ranked %d pairs; want %d", len(ranked), len(pool))
	}

	// Rounds × batch exceeding the pool: the loop stops once every pair
	// is labeled, each exactly once, and still ranks the whole pool.
	small := dataset.RestaurantN(9, 60, 8)
	pool = simjoin.Pairs(simjoin.Join(small.Table, simjoin.Options{Threshold: 0.3}))
	if len(pool) < 10 {
		t.Fatalf("pool of %d pairs is too small to exercise the loop", len(pool))
	}
	ranked, labels, err = activeLearn(small.Table, pool, small.Matches, attrs, 4, 5, 1000, 5)
	if err != nil {
		t.Fatal(err)
	}
	if labels != len(pool) {
		t.Errorf("labels = %d; want the whole pool, %d", labels, len(pool))
	}
	got := slices.Clone(ranked)
	record.SortPairs(got)
	want := slices.Clone(pool)
	record.SortPairs(want)
	if !slices.Equal(got, want) {
		t.Error("ranking is not a permutation of the pool")
	}
}

func TestActiveLearnErrors(t *testing.T) {
	d := dataset.RestaurantN(7, 60, 8)
	if _, _, err := activeLearn(d.Table, nil, d.Matches, []int{0}, 1, 10, 10, 3); err == nil {
		t.Error("an empty pool should error")
	}
}

// The seed sample holds both classes whenever the pool does: short of a
// class, the loop walks the proxy ranking for one, so a pool with a
// single class is labeled in full before the first model is trained.
func TestActiveLearnSeedClasses(t *testing.T) {
	d := dataset.RestaurantN(9, 60, 8)
	pool := simjoin.Pairs(simjoin.Join(d.Table, simjoin.Options{Threshold: 0.3}))
	attrs := []int{0, 1, 2, 3}
	// top is the pair ranked first by the seed's similarity proxy.
	top := pool[0]
	for _, p := range pool[1:] {
		if mean(learn.FeatureVector(d.Table, p, attrs)) > mean(learn.FeatureVector(d.Table, top, attrs)) {
			top = p
		}
	}
	const seedSize = 6
	for _, tc := range []struct {
		name   string
		truth  record.PairSet
		labels int
	}{
		{"both", record.NewPairSet(top), seedSize},
		{"no positives", record.NewPairSet(), len(pool)},
		{"no negatives", record.NewPairSet(pool...), len(pool)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, labels, err := activeLearn(d.Table, pool, tc.truth, attrs, 3, seedSize, 10, 0)
			if err != nil {
				t.Fatal(err)
			}
			if labels != tc.labels {
				t.Errorf("labels = %d; want %d", labels, tc.labels)
			}
		})
	}
}

// Pegasos permutes its examples from the seeded RNG, so the labeled set
// must reach it in a deterministic order: two runs over the same pool
// and seed agree exactly.
func TestActiveLearnRepeatIsBitIdentical(t *testing.T) {
	d := dataset.RestaurantN(7, 300, 40)
	pool := simjoin.Pairs(simjoin.Join(d.Table, simjoin.Options{Threshold: 0.1}))
	attrs := []int{0, 1, 2, 3}
	a, na, err := activeLearn(d.Table, pool, d.Matches, attrs, 11, 20, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, nb, err := activeLearn(d.Table, pool, d.Matches, attrs, 11, 20, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	if na != nb || !slices.Equal(a, b) {
		t.Fatalf("repeat runs differ: %d vs %d labels, rankings equal %v", na, nb, slices.Equal(a, b))
	}
}

// The Sarawagi et al. result: at the same label budget, uncertainty
// sampling yields a better ranking than a model trained on the same seed
// sample topped up with uniformly random labels. Individual seeds are
// noisy (a lucky random sample can win once), so compare mean AUC over
// several seeds.
func TestActiveBeatsPassiveAtEqualBudget(t *testing.T) {
	d := dataset.RestaurantN(7, 300, 40)
	pool := simjoin.Pairs(simjoin.Join(d.Table, simjoin.Options{Threshold: 0.1}))
	attrs := []int{0, 1, 2, 3}
	features := make([][]float64, len(pool))
	proxy := make([]int, len(pool))
	for i, p := range pool {
		features[i], proxy[i] = learn.FeatureVector(d.Table, p, attrs), i
	}
	slices.SortStableFunc(proxy, func(a, b int) int {
		return cmp.Compare(mean(features[b]), mean(features[a]))
	})
	auc := func(ranked []record.Pair) float64 {
		return eval.AUCPR(eval.PRCurve(ranked, d.Matches, d.Matches.Len()))
	}

	const trials, seedSize = 5, 30
	var aSum, pSum float64
	for s := int64(0); s < trials; s++ {
		seed := 100 + s
		ranked, budget, err := activeLearn(d.Table, pool, d.Matches, attrs, seed, seedSize, 25, 6)
		if err != nil {
			t.Fatal(err)
		}
		aSum += auc(ranked)

		// Passive: the proxy half of the seed, then random pairs up to
		// the active run's budget.
		picked := make([]bool, len(pool))
		var examples []learn.Example
		take := func(i int) {
			if picked[i] {
				return
			}
			picked[i] = true
			y := -1.0
			if d.Matches.Has(pool[i].A, pool[i].B) {
				y = 1
			}
			examples = append(examples, learn.Example{X: features[i], Label: y})
		}
		for _, i := range proxy[:seedSize/2] {
			take(i)
		}
		for _, i := range rand.New(rand.NewSource(seed)).Perm(len(pool)) {
			if len(examples) >= budget {
				break
			}
			take(i)
		}
		model, err := learn.TrainSVM(examples, seed)
		if err != nil {
			t.Fatal(err)
		}
		order := make([]int, len(pool))
		score := make([]float64, len(pool))
		for i := range pool {
			order[i], score[i] = i, model.Score(features[i])
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(score[b], score[a]) })
		passive := make([]record.Pair, len(pool))
		for i, j := range order {
			passive[i] = pool[j]
		}
		pSum += auc(passive)
	}
	if aSum < pSum-0.05*trials {
		t.Errorf("mean active AUC (%.3f) should not trail mean passive AUC (%.3f)", aSum/trials, pSum/trials)
	}
	t.Logf("mean AUC: active %.3f, passive %.3f", aSum/trials, pSum/trials)
}
