package crowder

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/record"
)

// paperTable builds Table 1 of the paper.
func paperTable() (*Table, []Pair) {
	t := NewTable("product_name", "price")
	t.Append("iPad Two 16GB WiFi White", "$490")               // 0 (r1)
	t.Append("iPad 2nd generation 16GB WiFi White", "$469")    // 1 (r2)
	t.Append("iPhone 4th generation White 16GB", "$545")       // 2 (r3)
	t.Append("Apple iPhone 4 16GB White", "$520")              // 3 (r4)
	t.Append("Apple iPhone 3rd generation Black 16GB", "$375") // 4 (r5)
	t.Append("iPhone 4 32GB White", "$599")                    // 5 (r6)
	t.Append("Apple iPad2 16GB WiFi White", "$499")            // 6 (r7)
	t.Append("Apple iPod shuffle 2GB Blue", "$49")             // 7 (r8)
	t.Append("Apple iPod shuffle USB Cable", "$19")            // 8 (r9)
	oracle := []Pair{{0, 1}, {0, 6}, {1, 6}, {2, 3}}
	return t, oracle
}

func TestResolveHybridOnPaperTable(t *testing.T) {
	tab, oracle := paperTable()
	res, err := Resolve(tab, Options{
		Threshold:   0.3,
		ClusterSize: 4,
		Oracle:      oracle,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPairs != 36 {
		t.Errorf("TotalPairs = %d; want 36", res.TotalPairs)
	}
	if res.Candidates == 0 || res.Candidates >= 36 {
		t.Errorf("Candidates = %d; pruning should keep a strict subset", res.Candidates)
	}
	if res.HITs == 0 {
		t.Error("no HITs generated")
	}
	if res.CostDollars <= 0 || res.ElapsedSeconds <= 0 {
		t.Errorf("cost/latency not accounted: %v, %v", res.CostDollars, res.ElapsedSeconds)
	}
	// The reliable simulated crowd must find the true matches that
	// survived pruning.
	acc := res.Accepted()
	found := map[Pair]bool{}
	for _, m := range acc {
		found[m.Pair] = true
	}
	if !found[Pair{0, 1}] || !found[Pair{0, 6}] || !found[Pair{1, 6}] {
		t.Errorf("iPad trio not fully recovered: %v", acc)
	}
}

func TestResolveMachineOnly(t *testing.T) {
	tab, _ := paperTable()
	res, err := Resolve(tab, Options{Threshold: 0.3, MachineOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.HITs != 0 || res.CostDollars != 0 {
		t.Error("machine-only run should not create HITs or cost")
	}
	if len(res.Matches) != res.Candidates {
		t.Errorf("machine-only should rank all candidates: %d vs %d", len(res.Matches), res.Candidates)
	}
	// Ranked by likelihood descending.
	for i := 1; i < len(res.Matches); i++ {
		if res.Matches[i-1].Confidence < res.Matches[i].Confidence {
			t.Fatal("matches not sorted by confidence")
		}
	}
}

// Machine-only pairs are machine verdicts: a resolve counts them as
// machine-judged, ranks exactly the cache's verdicts, and an estimate
// projects no crowd work.
func TestMachineOnlyPairsAreMachineVerdicts(t *testing.T) {
	rows, schema, _ := resolverDataset(3, 180, 30)
	tab := NewTable(schema...)
	for _, row := range rows {
		tab.Append(row...)
	}
	opts := Options{Threshold: 0.3, MachineOnly: true}
	est, err := EstimateCost(tab, opts)
	if err != nil {
		t.Fatal(err)
	}
	if est.Candidates == 0 || est.MachinePairs != est.Candidates || est.CrowdPairs != 0 || est.HITs != 0 || est.CostDollars != 0 {
		t.Errorf("machine-only estimate = %+v; want every candidate machine-judged and no HITs", est)
	}

	opts.MaxCandidates = est.Candidates / 2
	rv, err := NewResolver(tab, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rv.ResolveDelta()
	if err != nil {
		t.Fatal(err)
	}
	if res.NewCandidates != opts.MaxCandidates || res.MachinePairs != res.NewCandidates || res.HITs != 0 {
		t.Errorf("machine-only resolve: %d new candidates, %d machine pairs, %d HITs; want %d, %d, 0",
			res.NewCandidates, res.MachinePairs, res.HITs, opts.MaxCandidates, opts.MaxCandidates)
	}
	if hs := rv.HybridStats(); hs.MachinePairs != rv.JudgedPairs() || hs.CrowdPairs != 0 || hs.DeducedPairs != 0 || hs.Enabled {
		t.Errorf("machine-only HybridStats = %+v; want %d machine pairs only", hs, rv.JudgedPairs())
	}
	if rv.PendingPairs() != 0 {
		t.Errorf("PendingPairs = %d after a machine-only resolve; want 0", rv.PendingPairs())
	}
	assertMatchesRankCache(t, "machine-only top-k", rv, res.Matches)
}

func TestResolvePairHITs(t *testing.T) {
	tab, oracle := paperTable()
	res, err := Resolve(tab, Options{
		Threshold:   0.3,
		ClusterSize: 2,
		HITType:     PairHITs,
		Oracle:      oracle,
		Seed:        2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// ⌈candidates / 2⌉ pair-based HITs.
	want := (res.Candidates + 1) / 2
	if res.HITs != want {
		t.Errorf("HITs = %d; want %d", res.HITs, want)
	}
}

func TestResolveAllGenerators(t *testing.T) {
	tab, oracle := paperTable()
	for _, g := range []Generator{GenTwoTiered, GenRandom, GenBFS, GenDFS, GenApprox} {
		res, err := Resolve(tab, Options{
			Threshold:   0.3,
			ClusterSize: 4,
			Generator:   g,
			Oracle:      oracle,
			Seed:        3,
		})
		if err != nil {
			t.Fatalf("generator %d: %v", g, err)
		}
		if res.HITs == 0 {
			t.Errorf("generator %d produced no HITs", g)
		}
	}
}

func TestResolveErrors(t *testing.T) {
	if _, err := Resolve(nil, Options{MachineOnly: true}); err == nil {
		t.Error("nil table should error")
	}
	if _, err := Resolve(NewTable("a"), Options{MachineOnly: true}); err == nil {
		t.Error("empty table should error")
	}
	tab, _ := paperTable()
	if _, err := Resolve(tab, Options{}); err == nil {
		t.Error("missing oracle should error for crowd runs")
	}
	if _, err := Resolve(tab, Options{Oracle: []Pair{}, HITType: HITType(99)}); err == nil {
		t.Error("unknown HIT type should error")
	}
}

func TestResolveDeterministic(t *testing.T) {
	tab, oracle := paperTable()
	opts := Options{Threshold: 0.3, ClusterSize: 4, Oracle: oracle, Seed: 9}
	r1, err := Resolve(tab, opts)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Resolve(tab, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Matches) != len(r2.Matches) {
		t.Fatal("same options gave different match counts")
	}
	for i := range r1.Matches {
		if r1.Matches[i] != r2.Matches[i] {
			t.Fatal("same options gave different matches")
		}
	}
}

// The whole workflow must be bit-identical at every parallelism level:
// the parallel join ranks deterministically and every HIT has its own
// seeded RNG stream.
func TestResolveParallelismInvariance(t *testing.T) {
	tab, oracle := paperTable()
	base, err := Resolve(tab, Options{
		Threshold: 0.3, ClusterSize: 4, Oracle: oracle, Seed: 7, Parallelism: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 8} {
		got, err := Resolve(tab, Options{
			Threshold: 0.3, ClusterSize: 4, Oracle: oracle, Seed: 7, Parallelism: par,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got.Candidates != base.Candidates || got.HITs != base.HITs ||
			got.CostDollars != base.CostDollars || got.ElapsedSeconds != base.ElapsedSeconds {
			t.Fatalf("parallelism %d changed the workflow footprint", par)
		}
		if len(got.Matches) != len(base.Matches) {
			t.Fatalf("parallelism %d: %d matches vs %d", par, len(got.Matches), len(base.Matches))
		}
		for i := range base.Matches {
			if got.Matches[i] != base.Matches[i] {
				t.Fatalf("parallelism %d: match %d differs: %v vs %v",
					par, i, got.Matches[i], base.Matches[i])
			}
		}
	}
}

func TestResolveStageStats(t *testing.T) {
	tab, oracle := paperTable()
	res, err := Resolve(tab, Options{Threshold: 0.3, ClusterSize: 4, Oracle: oracle, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"prune", "route", "generate", "execute", "aggregate"}
	if len(res.Stages) != len(want) {
		t.Fatalf("Stages = %+v; want %d entries", res.Stages, len(want))
	}
	for i, name := range want {
		if res.Stages[i].Name != name {
			t.Errorf("stage %d = %q; want %q", i, res.Stages[i].Name, name)
		}
		if res.Stages[i].Seconds < 0 {
			t.Errorf("stage %q has negative duration", name)
		}
	}
	// Machine-only runs still report all five stages (the crowd ones as
	// ~zero-cost no-ops).
	mo, err := Resolve(tab, Options{Threshold: 0.3, MachineOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(mo.Stages) != len(want) {
		t.Fatalf("machine-only Stages = %+v", mo.Stages)
	}
}

func TestResolveThresholdPruning(t *testing.T) {
	tab, _ := paperTable()
	lo, err := Resolve(tab, Options{Threshold: 0.1, MachineOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	hi, err := Resolve(tab, Options{Threshold: 0.5, MachineOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if hi.Candidates >= lo.Candidates {
		t.Errorf("higher threshold should prune more: %d vs %d", hi.Candidates, lo.Candidates)
	}
}

func TestTableRecordAccess(t *testing.T) {
	tab := NewTable("name")
	id := tab.Append("hello world")
	if got := tab.Record(id); len(got) != 1 || got[0] != "hello world" {
		t.Errorf("Record = %v", got)
	}
	if tab.Record(99) != nil {
		t.Error("out-of-range Record should be nil")
	}
	if tab.Len() != 1 {
		t.Errorf("Len = %d; want 1", tab.Len())
	}
}

func TestCrossSourceOption(t *testing.T) {
	tab := NewTable("name")
	tab.AppendFrom(0, "apple ipod touch 8gb")
	tab.AppendFrom(0, "apple ipod touch 8gb black")
	tab.AppendFrom(1, "apple ipod touch 8gb 2nd gen")
	res, err := Resolve(tab, Options{Threshold: 0.1, CrossSourceOnly: true, MachineOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPairs != 2 {
		t.Errorf("TotalPairs = %d; want 2 (cross-source only)", res.TotalPairs)
	}
	for _, m := range res.Matches {
		if m.Pair.A != 2 && m.Pair.B != 2 {
			t.Errorf("same-source pair leaked: %v", m.Pair)
		}
	}
}

func TestSortMatches(t *testing.T) {
	ms := []Match{
		{Pair: Pair{3, 4}, Confidence: 0.2},
		{Pair: Pair{1, 2}, Confidence: 0.9},
		{Pair: Pair{0, 5}, Confidence: 0.9},
	}
	SortMatches(ms)
	if ms[0].Pair != (Pair{0, 5}) || ms[1].Pair != (Pair{1, 2}) || ms[2].Pair != (Pair{3, 4}) {
		t.Errorf("SortMatches = %v", ms)
	}

	// Pairs are unique in a match list, so the unstable sort must equal
	// a stable one under the same order on random, tie-heavy inputs.
	for _, tc := range []struct{ n, ids, levels int }{{0, 3, 2}, {50, 12, 2}, {500, 60, 4}, {500, 1000, 1000}} {
		rng := rand.New(rand.NewSource(int64(tc.n)))
		seen := map[Pair]bool{}
		var ms []Match
		for len(ms) < tc.n && len(seen) < tc.ids*tc.ids/2 {
			p := Pair{rng.Intn(tc.ids), rng.Intn(tc.ids)}
			if p.A >= p.B || seen[p] {
				continue
			}
			seen[p] = true
			ms = append(ms, Match{Pair: p, Confidence: float64(rng.Intn(tc.levels)) / float64(tc.levels)})
		}
		want := slices.Clone(ms)
		sort.SliceStable(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.Confidence != b.Confidence {
				return a.Confidence > b.Confidence
			}
			return a.Pair.A < b.Pair.A || (a.Pair.A == b.Pair.A && a.Pair.B < b.Pair.B)
		})
		SortMatches(ms)
		if !slices.Equal(ms, want) {
			t.Errorf("n=%d ids=%d: SortMatches differs from the stable reference", tc.n, tc.ids)
		}
	}
}

func TestEstimateCost(t *testing.T) {
	tab, _ := paperTable()
	est, err := EstimateCost(tab, Options{Threshold: 0.3, ClusterSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if est.Candidates == 0 || est.HITs == 0 {
		t.Fatalf("estimate = %+v; want non-zero candidates and HITs", est)
	}
	want := float64(est.HITs*3) * 0.025
	if est.CostDollars != want {
		t.Errorf("cost = %v; want %v", est.CostDollars, want)
	}
	// The estimate must agree with an actual run's HIT count and cost.
	res, err := Resolve(tab, Options{Threshold: 0.3, ClusterSize: 4, Oracle: []Pair{}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.HITs != est.HITs || res.CostDollars != est.CostDollars {
		t.Errorf("estimate (%d HITs, $%v) disagrees with run (%d HITs, $%v)",
			est.HITs, est.CostDollars, res.HITs, res.CostDollars)
	}
}

func TestEstimateCostErrors(t *testing.T) {
	if _, err := EstimateCost(nil, Options{}); err == nil {
		t.Error("nil table should error")
	}
	tab, _ := paperTable()
	if _, err := EstimateCost(tab, Options{HITType: HITType(7)}); err == nil {
		t.Error("unknown HIT type should error")
	}
	est, err := EstimateCost(tab, Options{Threshold: 0.99})
	if err != nil || est.HITs != 0 {
		t.Errorf("no candidates should estimate zero HITs: %+v, %v", est, err)
	}
}

func TestEstimateCostPairHITs(t *testing.T) {
	tab, _ := paperTable()
	est, err := EstimateCost(tab, Options{Threshold: 0.3, ClusterSize: 2, HITType: PairHITs})
	if err != nil {
		t.Fatal(err)
	}
	if est.HITs != (est.Candidates+1)/2 {
		t.Errorf("pair-HIT estimate = %d HITs for %d candidates", est.HITs, est.Candidates)
	}
}

// Plan-only runs post nothing, so they allocate no HIT IDs: the
// process-wide allocator moves by exactly the one ID each probe takes.
func TestEstimatesAllocateNoHITIDs(t *testing.T) {
	nextID := func() int { return crowd.PairHITsFromGen([][]record.Pair{nil}, 1)[0].ID }
	for _, ht := range []HITType{ClusterHITs, PairHITs} {
		for _, tr := range []TransitivityMode{TransitivityOff, TransitivityOn} {
			tab, oracle := paperTable()
			opts := Options{Threshold: 0.3, ClusterSize: 4, HITType: ht, Transitivity: tr, Oracle: oracle, Seed: 1}
			before := nextID()
			est, err := EstimateCost(tab, opts)
			if err != nil {
				t.Fatal(err)
			}
			if after := nextID(); est.HITs == 0 || after != before+1 {
				t.Errorf("HITType %d, Transitivity %d: EstimateCost (%d HITs) moved the HIT ID allocator %d → %d", ht, tr, est.HITs, before, after)
			}
			rv, err := NewResolver(tab, opts)
			if err != nil {
				t.Fatal(err)
			}
			before = nextID()
			est, err = rv.EstimateDelta()
			if err != nil {
				t.Fatal(err)
			}
			if after := nextID(); est.HITs == 0 || after != before+1 {
				t.Errorf("HITType %d, Transitivity %d: EstimateDelta (%d HITs) moved the HIT ID allocator %d → %d", ht, tr, est.HITs, before, after)
			}
		}
	}
}
