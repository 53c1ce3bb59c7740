package crowder

import (
	"strings"
	"testing"

	"github.com/crowder/crowder/internal/dataset"
)

// aggTestWorkload is a mid-size crowdable dataset shared by the
// aggregation-mode tests.
func aggTestWorkload(t *testing.T) (*dataset.Dataset, []Pair) {
	t.Helper()
	d := dataset.RestaurantN(6, 300, 60)
	return d, oracleOf(d)
}

// oracleOf is a dataset's planted truth as the simulator's oracle.
func oracleOf(d *dataset.Dataset) []Pair {
	var oracle []Pair
	for _, p := range d.Matches.Slice() {
		oracle = append(oracle, Pair{A: int(p.A), B: int(p.B)})
	}
	return oracle
}

func buildTable(d *dataset.Dataset) *Table {
	tab := NewTable(d.Table.Schema...)
	for i := range d.Table.Records {
		tab.Append(d.Table.Records[i].Values...)
	}
	return tab
}

// The default aggregation path is pinned: a zero Options and an explicit
// AggregationDawidSkene must produce bit-identical results — the enum's
// zero value IS the historical behavior.
func TestAggregationDefaultIsDawidSkene(t *testing.T) {
	if AggregationDawidSkene != 0 {
		t.Fatal("AggregationDawidSkene must be the zero value: the default path is pinned bit-identical across PRs")
	}
	d, oracle := aggTestWorkload(t)
	base, err := Resolve(buildTable(d), Options{Threshold: 0.4, Oracle: oracle, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := Resolve(buildTable(d), Options{
		Threshold: 0.4, Oracle: oracle, Seed: 11, Aggregation: AggregationDawidSkene,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Matches) != len(explicit.Matches) {
		t.Fatalf("explicit default aggregation changed the match count: %d vs %d", len(explicit.Matches), len(base.Matches))
	}
	for i := range base.Matches {
		if base.Matches[i] != explicit.Matches[i] {
			t.Fatalf("match %d differs between zero-value and explicit default aggregation", i)
		}
	}
}

// Every aggregation mode must be bit-identical at every parallelism
// level, with and without Transitivity — the engine's determinism
// guarantee does not depend on which aggregator runs. CI runs this
// race-enabled.
func TestAggregationParallelismInvariance(t *testing.T) {
	d, oracle := aggTestWorkload(t)
	for _, mode := range []AggregationMode{AggregationDawidSkene, AggregationMajorityVote, AggregationDawidSkeneMAP} {
		for _, trans := range []TransitivityMode{TransitivityOff, TransitivityOn} {
			opts := Options{
				Threshold: 0.4, HITType: PairHITs, ClusterSize: 5,
				Oracle: oracle, Seed: 11,
				Aggregation: mode, Transitivity: trans, Parallelism: 1,
			}
			base, err := Resolve(buildTable(d), opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, par := range []int{2, 8} {
				opts.Parallelism = par
				got, err := Resolve(buildTable(d), opts)
				if err != nil {
					t.Fatal(err)
				}
				if got.HITs != base.HITs || got.CostDollars != base.CostDollars {
					t.Fatalf("%v/transitivity=%d: parallelism %d changed the workflow footprint", mode, trans, par)
				}
				if len(got.Matches) != len(base.Matches) {
					t.Fatalf("%v/transitivity=%d: parallelism %d gave %d matches, want %d",
						mode, trans, par, len(got.Matches), len(base.Matches))
				}
				for i := range base.Matches {
					if got.Matches[i] != base.Matches[i] {
						t.Fatalf("%v/transitivity=%d: parallelism %d match %d differs: %v vs %v",
							mode, trans, par, i, got.Matches[i], base.Matches[i])
					}
				}
			}
		}
	}
}

// A k-batch incremental session under the MAP aggregator reproduces the
// from-scratch MAP resolution bit for bit: the aggregator slots into
// the delta path's cached∪fresh re-aggregation without breaking its
// order-invariance contract.
func TestAggregationMAPDeltaEqualsScratch(t *testing.T) {
	d, oracle := aggTestWorkload(t)
	opts := Options{
		Threshold: 0.4, HITType: PairHITs, ClusterSize: 5,
		Oracle: oracle, Seed: 11, Aggregation: AggregationDawidSkeneMAP,
	}
	full, err := Resolve(buildTable(d), opts)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := NewResolver(NewTable(d.Table.Schema...), opts)
	if err != nil {
		t.Fatal(err)
	}
	var last *Result
	const batches = 3
	size := (d.Table.Len() + batches - 1) / batches
	for lo := 0; lo < d.Table.Len(); lo += size {
		hi := lo + size
		if hi > d.Table.Len() {
			hi = d.Table.Len()
		}
		for i := lo; i < hi; i++ {
			rv.Append(d.Table.Records[i].Values...)
		}
		if last, err = rv.ResolveDelta(); err != nil {
			t.Fatal(err)
		}
	}
	if len(full.Matches) != len(last.Matches) {
		t.Fatalf("k-batch MAP session has %d matches; from-scratch %d", len(last.Matches), len(full.Matches))
	}
	for i := range full.Matches {
		if full.Matches[i] != last.Matches[i] {
			t.Fatalf("k-batch MAP match %d differs: %v vs %v", i, last.Matches[i], full.Matches[i])
		}
	}
}

// End to end, MAP must score accepted matches at F1 ≥ the default
// aggregator on the reference datasets (measured 0.946 → 0.952 on
// Restaurant and 0.957 → 0.966 on Product+Dup).
func TestAggregationMAPF1AtLeastDefault(t *testing.T) {
	for _, w := range []struct {
		name string
		d    *dataset.Dataset
		tau  float64
	}{
		{"restaurant", dataset.RestaurantN(3, 2000, 400), 0.4},
		{"product+dup", dataset.ProductDup(2, dataset.Product(1)), 0.5},
	} {
		t.Run(w.name, func(t *testing.T) {
			f1 := func(mode AggregationMode) float64 {
				res, err := Resolve(buildTable(w.d), Options{
					Threshold: w.tau, HITType: PairHITs, ClusterSize: 10,
					Oracle: oracleOf(w.d), Seed: 1, Aggregation: mode,
				})
				if err != nil {
					t.Fatal(err)
				}
				return f1Against(w.d.Matches, res)
			}
			if def, mp := f1(AggregationDawidSkene), f1(AggregationDawidSkeneMAP); mp < def {
				t.Errorf("MAP F1 %.4f below default %.4f", mp, def)
			}
		})
	}
}

// Majority-vote aggregation end to end: confidences are vote fractions,
// so every value is k/n for n ≤ assignments — and the mode actually
// reaches the output (no silent fallback to EM).
func TestAggregationMajorityVoteEndToEnd(t *testing.T) {
	tab, oracle := paperTable()
	res, err := Resolve(tab, Options{
		Threshold: 0.3, HITType: PairHITs, ClusterSize: 4, Oracle: oracle, Seed: 7,
		Aggregation: AggregationMajorityVote, SpammerRate: NoSpammers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Matches) == 0 {
		t.Fatal("majority-vote resolution produced no matches")
	}
	for _, m := range res.Matches {
		// 3 assignments ⇒ fractions k/3.
		k := m.Confidence * 3
		if diff := k - float64(int(k+0.5)); diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("majority-vote confidence %v is not a thirds fraction", m.Confidence)
		}
	}
	truth := map[Pair]bool{}
	for _, p := range oracle {
		truth[p] = true
	}
	for _, m := range res.Accepted() {
		if !truth[m.Pair] {
			t.Errorf("clean-pool majority vote accepted non-match %v", m.Pair)
		}
	}
}

// The MAP aggregator interacts with transitive deduction: deduced
// confidences are min-posterior along the proof, so they must stay
// consistent with the MAP posteriors of their supporting pairs.
func TestAggregationMAPWithTransitivity(t *testing.T) {
	d, oracle := aggTestWorkload(t)
	opts := Options{
		Threshold: 0.4, HITType: PairHITs, ClusterSize: 5,
		Oracle: oracle, Seed: 11,
		Aggregation: AggregationDawidSkeneMAP, Transitivity: TransitivityOn,
		SpammerRate: NoSpammers,
	}
	res, err := Resolve(buildTable(d), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeducedPairs == 0 {
		t.Fatal("transitive MAP resolution deduced nothing; the interaction is untested")
	}
	truth := map[Pair]bool{}
	for _, p := range oracle {
		truth[p] = true
	}
	for _, m := range res.Accepted() {
		if !truth[m.Pair] {
			t.Errorf("clean-pool transitive MAP resolution accepted non-match %v (confidence %v)", m.Pair, m.Confidence)
		}
	}
}

func TestAggregationModeStringParseRoundTrip(t *testing.T) {
	for _, m := range []AggregationMode{AggregationDawidSkene, AggregationMajorityVote, AggregationDawidSkeneMAP} {
		got, err := ParseAggregationMode(m.String())
		if err != nil {
			t.Fatalf("ParseAggregationMode(%q): %v", m, err)
		}
		if got != m {
			t.Errorf("ParseAggregationMode(%q) = %v; want %v", m.String(), got, m)
		}
	}
	if m, err := ParseAggregationMode(""); err != nil || m != AggregationDawidSkene {
		t.Errorf("ParseAggregationMode(\"\") = %v, %v; want the default", m, err)
	}
	if _, err := ParseAggregationMode("em"); err == nil || !strings.Contains(err.Error(), `"em"`) {
		t.Errorf("unknown aggregation name should fail naming the value; got %v", err)
	}
	if s := AggregationMode(9).String(); !strings.Contains(s, "9") {
		t.Errorf("out-of-range AggregationMode.String() = %q; should carry the raw value", s)
	}
}

// WorkerStats: after a resolution the session reports each worker's
// accuracy with the coverage to read it; machine-only sessions (no crowd
// answers) report nothing.
func TestResolverWorkerStats(t *testing.T) {
	d, oracle := aggTestWorkload(t)
	rv, err := NewResolver(buildTable(d), Options{Threshold: 0.4, HITType: PairHITs, Oracle: oracle, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if got := rv.WorkerStats(); got != nil {
		t.Fatalf("stats before any delta = %v; want nil", got)
	}
	if _, err := rv.ResolveDelta(); err != nil {
		t.Fatal(err)
	}
	stats := rv.WorkerStats()
	if len(stats) == 0 {
		t.Fatal("no worker stats after a resolution")
	}
	for i, ws := range stats {
		if i > 0 && stats[i-1].Worker >= ws.Worker {
			t.Fatal("worker stats are not sorted by worker ID")
		}
		if ws.Accuracy < 0 || ws.Accuracy > 1 {
			t.Errorf("worker %d accuracy %v outside [0,1]", ws.Worker, ws.Accuracy)
		}
		if ws.Answers <= 0 {
			t.Errorf("worker %d reported with %d answers", ws.Worker, ws.Answers)
		}
		if ws.MatchesSeen+ws.NonMatchesSeen != ws.Answers {
			t.Errorf("worker %d coverage does not add up: %+v", ws.Worker, ws)
		}
		want := 0
		if ws.MatchesSeen > 0 {
			want++
		}
		if ws.NonMatchesSeen > 0 {
			want++
		}
		if ws.ClassesSeen != want {
			t.Errorf("worker %d ClassesSeen = %d; coverage says %d", ws.Worker, ws.ClassesSeen, want)
		}
	}

	mo, err := NewResolver(buildTable(d), Options{Threshold: 0.4, MachineOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mo.ResolveDelta(); err != nil {
		t.Fatal(err)
	}
	if got := mo.WorkerStats(); got != nil {
		t.Errorf("machine-only session reports worker stats: %v", got)
	}
}
