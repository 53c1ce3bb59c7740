package experiments

import (
	"fmt"
	"strings"

	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/hitgen"
)

// generators returns the five strategies compared in Section 7.2, in the
// paper's legend order.
func (e *Env) generators() []hitgen.ClusterGenerator {
	return []hitgen.ClusterGenerator{
		hitgen.Random{Seed: e.Seed},
		hitgen.DFS{},
		hitgen.BFS{},
		hitgen.Approx{},
		hitgen.TwoTiered{},
	}
}

// HITCountSeries is one generator's HIT counts across the swept parameter.
type HITCountSeries struct {
	Generator string
	Counts    []int
}

// HITCountResult reproduces Figure 10 or 11: the number of cluster-based
// HITs per generator across a parameter sweep.
type HITCountResult struct {
	Figure  string
	Dataset string
	Param   string
	Values  []float64
	Series  []HITCountSeries
}

// Figure10 sweeps the likelihood threshold from 0.5 to 0.1 with k=10 and
// counts the cluster-based HITs each generator produces (Figure 10).
func (e *Env) Figure10(d *dataset.Dataset) (*HITCountResult, error) {
	res := &HITCountResult{
		Figure:  "Figure 10",
		Dataset: d.Name,
		Param:   "likelihood threshold",
		Values:  []float64{0.5, 0.4, 0.3, 0.2, 0.1},
	}
	const k = 10
	for _, gen := range e.generators() {
		series := HITCountSeries{Generator: gen.Name()}
		for _, tau := range res.Values {
			pairs := e.pairsAt(d, tau)
			hits, err := gen.Generate(pairs, k)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s at tau=%v: %w", gen.Name(), tau, err)
			}
			if err := hitgen.ValidateCover(pairs, hits, k); err != nil {
				return nil, fmt.Errorf("experiments: %s at tau=%v: %w", gen.Name(), tau, err)
			}
			series.Counts = append(series.Counts, len(hits))
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// Figure11 sweeps the cluster-size threshold over {5, 10, 15, 20} with
// likelihood threshold 0.1 (Figure 11).
func (e *Env) Figure11(d *dataset.Dataset) (*HITCountResult, error) {
	res := &HITCountResult{
		Figure:  "Figure 11",
		Dataset: d.Name,
		Param:   "cluster-size threshold",
		Values:  []float64{5, 10, 15, 20},
	}
	pairs := e.pairsAt(d, 0.1)
	for _, gen := range e.generators() {
		series := HITCountSeries{Generator: gen.Name()}
		for _, kf := range res.Values {
			k := int(kf)
			hits, err := gen.Generate(pairs, k)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s at k=%d: %w", gen.Name(), k, err)
			}
			if err := hitgen.ValidateCover(pairs, hits, k); err != nil {
				return nil, fmt.Errorf("experiments: %s at k=%d: %w", gen.Name(), k, err)
			}
			series.Counts = append(series.Counts, len(hits))
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// String renders the series as the figure's data table.
func (r *HITCountResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — #cluster-based HITs vs %s (%s)\n", r.Figure, r.Param, r.Dataset)
	fmt.Fprintf(&b, "%-16s", "Generator")
	for _, v := range r.Values {
		fmt.Fprintf(&b, "%10.1f", v)
	}
	b.WriteByte('\n')
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%-16s", s.Generator)
		for _, c := range s.Counts {
			fmt.Fprintf(&b, "%10d", c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CountFor returns the HIT count of the named generator at value index i,
// or -1 when absent.
func (r *HITCountResult) CountFor(generator string, i int) int {
	for _, s := range r.Series {
		if s.Generator == generator && i < len(s.Counts) {
			return s.Counts[i]
		}
	}
	return -1
}
