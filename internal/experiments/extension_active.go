package experiments

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/eval"
	"github.com/crowder/crowder/internal/hitgen"
	"github.com/crowder/crowder/internal/learn"
	"github.com/crowder/crowder/internal/record"
)

// ActiveVsHybridResult is the extension experiment contrasting two uses of
// the same human effort: CrowdER spends it VERIFYING likely matches (the
// paper's approach); active learning spends it TRAINING a classifier
// (the Section 8 line of work: Sarawagi & Bhamidipaty, Arasu et al.),
// querying labels for the pairs the classifier is least certain about
// instead of labeling a fixed random sample.
type ActiveVsHybridResult struct {
	Dataset string
	// HumanJudgments is the equalized budget: pair judgments purchased.
	HumanJudgments int
	// Rows, one per technique: AUC of the resulting ranking.
	Rows []AblationRow
}

// ActiveVsHybrid runs both techniques at an (approximately) equal human
// budget on the dataset and reports ranking quality. The hybrid budget is
// HITs × assignments × covered-pairs-per-HIT judgments; active learning
// gets the same number of single-judgment labels.
func (e *Env) ActiveVsHybrid(d *dataset.Dataset, tau float64, k int) (*ActiveVsHybridResult, error) {
	pairs := e.pairsAt(d, tau)
	total := d.Matches.Len()

	// Hybrid: the paper's pipeline.
	gen := hitgen.TwoTiered{}
	hits, err := gen.Generate(pairs, k)
	if err != nil {
		return nil, err
	}
	pop := crowd.NewPopulation(e.Seed, crowd.PopulationOptions{})
	run, err := crowd.RunClusterHITs(hits, pairs, d.Matches, pop, crowd.Config{
		Seed:       e.Seed,
		Difficulty: e.difficultyFn(d),
	})
	if err != nil {
		return nil, err
	}
	post := aggregate.DawidSkene(run.Answers, aggregate.DawidSkeneOptions{})
	hybridAUC := eval.AUCPR(eval.PRCurve(post.Ranked(), d.Matches, total))
	budget := len(run.Answers) // total pair judgments the crowd produced

	// Active learning over the full 0.1-threshold pool with the same
	// number of oracle labels.
	poolPairs := e.pairsAt(d, 0.1)
	attrs := []int{0}
	if len(d.Table.Schema) >= 4 {
		attrs = []int{0, 1, 2, 3}
	}
	const seedSize, rounds = 30, 10
	batch := max((budget-seedSize)/rounds, 1)
	ranked, labels, err := activeLearn(d.Table, poolPairs, d.Matches, attrs, e.Seed, seedSize, batch, rounds)
	if err != nil {
		return nil, err
	}
	activeAUC := eval.AUCPR(eval.PRCurve(ranked, d.Matches, total))

	return &ActiveVsHybridResult{
		Dataset:        d.Name,
		HumanJudgments: budget,
		Rows: []AblationRow{
			{Variant: fmt.Sprintf("CrowdER hybrid (%d HITs)", len(hits)), Value: hybridAUC},
			{Variant: fmt.Sprintf("Active learning (%d labels)", labels), Value: activeAUC},
		},
	}, nil
}

// activeLearn spends an oracle budget on training the Section 7.3 SVM by
// uncertainty sampling. It labels a seed sample, then for each of rounds
// rounds retrains and labels the batch unlabeled pairs with the smallest
// |margin|, stopping early once the pool is exhausted. It returns the
// pool ranked by the final model's score, descending, and the number of
// labels bought. The truth set is the oracle.
func activeLearn(t *record.Table, pool []record.Pair, truth record.PairSet, attrs []int, seed int64, seedSize, batch, rounds int) ([]record.Pair, int, error) {
	rng := rand.New(rand.NewSource(seed))
	features := make([][]float64, len(pool))
	for i, p := range pool {
		features[i] = learn.FeatureVector(t, p, attrs)
	}

	// label[i] is pool pair i's oracle label, ±1, or 0 while unqueried.
	label := make([]float64, len(pool))
	labeled, hasPos, hasNeg := 0, false, false
	query := func(i int) {
		if label[i] != 0 {
			return
		}
		labeled++
		if truth.Has(pool[i].A, pool[i].B) {
			label[i], hasPos = 1, true
		} else {
			label[i], hasNeg = -1, true
		}
	}

	// Seed sample: half from the top of a similarity proxy (mean feature
	// value — likely positives live there), half uniform. A purely random
	// seed from a heavily imbalanced pool usually contains no positives,
	// which degenerates the first model and strands uncertainty sampling
	// in a region with nothing to learn.
	proxy := make([]int, len(pool))
	for i := range proxy {
		proxy[i] = i
	}
	sort.Slice(proxy, func(a, b int) bool {
		return mean(features[proxy[a]]) > mean(features[proxy[b]])
	})
	for i := 0; i < len(proxy) && labeled < seedSize/2; i++ {
		query(proxy[i])
	}
	for _, i := range rng.Perm(len(pool)) {
		if labeled >= seedSize {
			break
		}
		query(i)
	}
	// Both classes before the first training round, when the pool has
	// them: walk down the proxy ranking for a positive and up from its
	// bottom for a negative.
	for i := 0; i < len(proxy) && !hasPos; i++ {
		query(proxy[i])
	}
	for i := len(proxy) - 1; i >= 0 && !hasNeg; i-- {
		query(proxy[i])
	}

	type cand struct {
		idx    int
		margin float64
	}
	var model *learn.SVM
	for round := 0; ; round++ {
		// Pool order: Pegasos permutes its examples from the seeded RNG,
		// so the input order must be deterministic.
		examples := make([]learn.Example, 0, labeled)
		for i, y := range label {
			if y != 0 {
				examples = append(examples, learn.Example{X: features[i], Label: y})
			}
		}
		var err error
		if model, err = learn.TrainSVM(examples, seed); err != nil {
			return nil, 0, fmt.Errorf("experiments: active learning: %w", err)
		}
		if round == rounds || labeled == len(pool) {
			break
		}
		var cands []cand
		for i, y := range label {
			if y == 0 {
				cands = append(cands, cand{idx: i, margin: math.Abs(model.Score(features[i]))})
			}
		}
		slices.SortFunc(cands, func(a, b cand) int {
			return cmp.Or(cmp.Compare(a.margin, b.margin), cmp.Compare(a.idx, b.idx))
		})
		for _, c := range cands[:min(batch, len(cands))] {
			query(c.idx)
		}
	}

	score := make([]float64, len(pool))
	order := make([]int, len(pool))
	for i := range pool {
		score[i], order[i] = model.Score(features[i]), i
	}
	slices.SortFunc(order, func(a, b int) int {
		return cmp.Or(cmp.Compare(score[b], score[a]), cmp.Compare(a, b))
	})
	ranked := make([]record.Pair, len(pool))
	for i, j := range order {
		ranked[i] = pool[j]
	}
	return ranked, labeled, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// String renders the comparison.
func (r *ActiveVsHybridResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Extension — verification vs training at ~%d human judgments (%s)\n",
		r.HumanJudgments, r.Dataset)
	fmt.Fprintf(&b, "%-32s %10s\n", "Technique", "AUC-PR")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-32s %10.3f\n", row.Variant, row.Value)
	}
	return b.String()
}
