// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7). Each driver returns a result struct whose
// String method prints the same rows/series the paper reports; the
// README's "Reproducing the paper's experiments" section lists them.
//
// Absolute numbers differ from the paper — the datasets are synthetic
// stand-ins and the crowd is simulated — but the shapes the paper's
// conclusions rest on are reproduced: which technique wins, by roughly
// what factor, and where the crossovers fall.
package experiments

import (
	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/simjoin"
)

// Env bundles the datasets and the base RNG seed shared by all drivers.
type Env struct {
	Seed       int64
	Restaurant *dataset.Dataset
	Product    *dataset.Dataset
	ProductDup *dataset.Dataset

	// joined caches the lowest-threshold similarity join per dataset so
	// threshold sweeps reuse one pass.
	joined map[string][]simjoin.ScoredPair
}

// NewEnv constructs the standard experimental environment with the
// paper-scale datasets.
func NewEnv(seed int64) *Env {
	prod := dataset.Product(seed)
	return &Env{
		Seed:       seed,
		Restaurant: dataset.Restaurant(seed),
		Product:    prod,
		ProductDup: dataset.ProductDup(seed+1, prod),
		joined:     make(map[string][]simjoin.ScoredPair),
	}
}

// isCross reports whether the dataset joins across sources only.
func isCross(d *dataset.Dataset) bool { return len(d.Table.Source) > 0 }

// scoredAt returns the dataset's scored pairs at the given threshold,
// reusing a cached 0.1-threshold join when possible.
func (e *Env) scoredAt(d *dataset.Dataset, tau float64) []simjoin.ScoredPair {
	if tau >= 0.1 {
		base, ok := e.joined[d.Name]
		if !ok {
			base = simjoin.Join(d.Table, simjoin.Options{Threshold: 0.1, CrossSourceOnly: isCross(d)})
			e.joined[d.Name] = base
		}
		return simjoin.FilterThreshold(base, tau)
	}
	return simjoin.Join(d.Table, simjoin.Options{Threshold: tau, CrossSourceOnly: isCross(d)})
}

// pairsAt returns just the pairs at the threshold.
func (e *Env) pairsAt(d *dataset.Dataset, tau float64) []record.Pair {
	return simjoin.Pairs(e.scoredAt(d, tau))
}

// countMatches counts how many scored pairs are true matches.
func countMatches(sp []simjoin.ScoredPair, truth record.PairSet) int {
	n := 0
	for _, s := range sp {
		if truth.Has(s.Pair.A, s.Pair.B) {
			n++
		}
	}
	return n
}

// difficultyFn derives a per-pair judgment difficulty for the crowd
// simulator from machine similarity (see crowd.DifficultyFromLikelihood).
// Product+Dup's token-swap duplicates, for example, have similarity ≈ 1
// and are almost never misjudged — which is what lets its cluster-based
// HITs stay accurate despite heavy transitivity (Figure 15(b)).
func (e *Env) difficultyFn(d *dataset.Dataset) func(record.Pair) float64 {
	sim := make(map[record.Pair]float64)
	for _, sp := range e.scoredAt(d, 0.1) {
		sim[sp.Pair] = sp.Likelihood
	}
	return crowd.DifficultyFromLikelihood(sim)
}
