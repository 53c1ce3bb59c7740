package experiments

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/eval"
	"github.com/crowder/crowder/internal/hitgen"
	"github.com/crowder/crowder/internal/learn"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/simjoin"
)

// recallGrid is the x-axis the paper's PR plots use.
var recallGrid = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0}

// MethodCurve is one technique's PR curve plus run metadata.
type MethodCurve struct {
	Method string
	Points []eval.PRPoint
	// HITs and CostDollars are zero for machine-only techniques.
	HITs        int
	CostDollars float64
}

// Figure12Result reproduces Figure 12: PR curves of simjoin, SVM, hybrid
// and hybrid(QT) on one dataset.
type Figure12Result struct {
	Dataset string
	Curves  []MethodCurve
}

// Figure12 runs the four entity-resolution techniques of Section 7.3 on
// the dataset. hybridThreshold is the likelihood threshold the hybrid
// workflow prunes at (0.35 for Restaurant, 0.2 for Product in the paper);
// k is the cluster size (10).
func (e *Env) Figure12(d *dataset.Dataset, hybridThreshold float64, k int) (*Figure12Result, error) {
	res := &Figure12Result{Dataset: d.Name}
	total := d.Matches.Len()

	// simjoin: rank all candidate pairs above 0.1 by Jaccard likelihood.
	scored := e.scoredAt(d, 0.1)
	res.Curves = append(res.Curves, MethodCurve{
		Method: "simjoin",
		Points: eval.PRCurve(simjoin.Pairs(scored), d.Matches, total),
	})

	// SVM: Section 7.3's learning-based baseline.
	svmCurve, err := e.svmCurve(d, scored)
	if err != nil {
		return nil, err
	}
	res.Curves = append(res.Curves, svmCurve)

	// hybrid and hybrid(QT).
	for _, qt := range []bool{false, true} {
		c, err := e.hybridCurve(d, hybridThreshold, k, qt)
		if err != nil {
			return nil, err
		}
		res.Curves = append(res.Curves, c)
	}
	return res, nil
}

// svmCurve trains the linear SVM per Section 7.3: features are edit
// distance + cosine per attribute (all four for Restaurant, name only for
// Product), trained on 500 random pairs with Jaccard above 0.1, sampled 10
// times; scores are averaged across the samples before ranking.
func (e *Env) svmCurve(d *dataset.Dataset, scored []simjoin.ScoredPair) (MethodCurve, error) {
	attrs := []int{0}
	if len(d.Table.Schema) >= 4 {
		attrs = []int{0, 1, 2, 3}
	}
	pairs := simjoin.Pairs(scored)
	features := make([][]float64, len(pairs))
	for i, p := range pairs {
		features[i] = learn.FeatureVector(d.Table, p, attrs)
	}

	// Training pairs: 500 per sample, 10 samples averaged (Section 7.3).
	// The paper samples uniformly from pairs above Jaccard 0.1; with ~100
	// matches among ~90k candidates a uniform 500-pair sample usually
	// contains zero positives, so (as any practical ER training-set
	// construction does) we stratify: half the sample is drawn from the
	// top of the likelihood ranking, where the matches live, and half
	// uniformly. The README's experiments section documents this
	// deviation.
	const samples = 10
	const trainSize = 500
	topPool := len(pairs) / 20
	if topPool < trainSize/2 {
		topPool = trainSize / 2
	}
	if topPool > len(pairs) {
		topPool = len(pairs)
	}
	sumScores := make([]float64, len(pairs))
	rng := rand.New(rand.NewSource(e.Seed + 42))
	for s := 0; s < samples; s++ {
		n := trainSize
		if n > len(pairs) {
			n = len(pairs)
		}
		idxs := make([]int, 0, n)
		seen := make(map[int]bool, n)
		// Half from the likely-positive region (pairs are sorted by
		// likelihood descending), half uniform.
		for len(idxs) < n/2 {
			i := rng.Intn(topPool)
			if !seen[i] {
				seen[i] = true
				idxs = append(idxs, i)
			}
		}
		for len(idxs) < n {
			i := rng.Intn(len(pairs))
			if !seen[i] {
				seen[i] = true
				idxs = append(idxs, i)
			}
		}
		train := make([]learn.Example, n)
		for i, idx := range idxs {
			p := pairs[idx]
			label := -1.0
			if d.Matches.Has(p.A, p.B) {
				label = 1.0
			}
			train[i] = learn.Example{X: features[idx], Label: label}
		}
		model, err := learn.TrainSVM(train, e.Seed+int64(s))
		if err != nil {
			return MethodCurve{}, fmt.Errorf("experiments: svm sample %d: %w", s, err)
		}
		for i := range pairs {
			sumScores[i] += model.Score(features[i])
		}
	}

	ranked := make([]record.Pair, len(pairs))
	copy(ranked, pairs)
	// Sort by averaged score descending.
	scoreOf := make(map[record.Pair]float64, len(pairs))
	for i, p := range pairs {
		scoreOf[p] = sumScores[i]
	}
	sortPairsByScore(ranked, scoreOf)
	return MethodCurve{
		Method: "SVM",
		Points: eval.PRCurve(ranked, d.Matches, d.Matches.Len()),
	}, nil
}

// hybridCurve runs the full hybrid workflow (machine prune → two-tiered
// cluster HITs → simulated crowd → Dawid–Skene) and evaluates the crowd's
// ranked output.
func (e *Env) hybridCurve(d *dataset.Dataset, tau float64, k int, qt bool) (MethodCurve, error) {
	pairs := e.pairsAt(d, tau)
	gen := hitgen.TwoTiered{}
	hits, err := gen.Generate(pairs, k)
	if err != nil {
		return MethodCurve{}, err
	}
	pop := crowd.NewPopulation(e.Seed, crowd.PopulationOptions{})
	run, err := crowd.RunClusterHITs(hits, pairs, d.Matches, pop, crowd.Config{
		Seed:              e.Seed,
		QualificationTest: qt,
		Difficulty:        e.difficultyFn(d),
	})
	if err != nil {
		return MethodCurve{}, err
	}
	post := aggregate.DawidSkene(run.Answers, aggregate.DawidSkeneOptions{})
	name := "hybrid"
	if qt {
		name = "hybrid(QT)"
	}
	return MethodCurve{
		Method:      name,
		Points:      eval.PRCurve(post.Ranked(), d.Matches, d.Matches.Len()),
		HITs:        len(hits),
		CostDollars: run.CostDollars,
	}, nil
}

// sortPairsByScore orders pairs by score descending; ties keep the
// canonical pair order (sorted first, then stably reordered by score).
func sortPairsByScore(pairs []record.Pair, score map[record.Pair]float64) {
	record.SortPairs(pairs)
	sort.SliceStable(pairs, func(i, j int) bool {
		return score[pairs[i]] > score[pairs[j]]
	})
}

// String renders the four curves at the recall grid, Figure 12's layout.
func (r *Figure12Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12 — Precision/Recall (%s)\n", r.Dataset)
	fmt.Fprintf(&b, "%-8s", "Recall")
	for _, c := range r.Curves {
		fmt.Fprintf(&b, "%14s", c.Method)
	}
	b.WriteByte('\n')
	for _, rec := range recallGrid {
		fmt.Fprintf(&b, "%6.0f%% ", rec*100)
		for _, c := range r.Curves {
			fmt.Fprintf(&b, "%13.1f%%", 100*eval.PrecisionAtRecall(c.Points, rec))
		}
		b.WriteByte('\n')
	}
	for _, c := range r.Curves {
		if c.HITs > 0 {
			fmt.Fprintf(&b, "%s: %d HITs, $%.2f\n", c.Method, c.HITs, c.CostDollars)
		}
	}
	return b.String()
}

// Curve returns the named method's curve, or nil.
func (r *Figure12Result) Curve(method string) *MethodCurve {
	for i := range r.Curves {
		if r.Curves[i].Method == method {
			return &r.Curves[i]
		}
	}
	return nil
}
