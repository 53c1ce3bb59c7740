package hitgen

import (
	"strings"
	"testing"

	"github.com/crowder/crowder/internal/record"
)

// paperPairs returns the ten above-threshold pairs of Figure 2(a)/Figure 5,
// using the paper's 1-based record numbering.
func paperPairs() []record.Pair {
	mk := record.MakePair
	return []record.Pair{
		mk(1, 2), mk(1, 7), mk(2, 7), mk(2, 3),
		mk(3, 4), mk(4, 5), mk(4, 6), mk(4, 7),
		mk(5, 6), mk(8, 9),
	}
}

func allGenerators() []ClusterGenerator {
	return []ClusterGenerator{
		Random{Seed: 1},
		BFS{},
		DFS{},
		Approx{},
		TwoTiered{},
		TwoTiered{Pack: PackFFD},
		TwoTiered{Seed: SeedMinID},
		TwoTiered{DisableTieBreak: true},
	}
}

func TestGeneratePairHITs(t *testing.T) {
	pairs := paperPairs()
	// Example in Section 3.1: ten pairs with k=2 need five pair-based HITs.
	hits, err := GeneratePairHITs(pairs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 5 {
		t.Fatalf("got %d pair-based HITs; want 5", len(hits))
	}
	total := 0
	for _, h := range hits {
		if len(h.Pairs) > 2 {
			t.Fatalf("HIT has %d pairs; want <= 2", len(h.Pairs))
		}
		total += len(h.Pairs)
	}
	if total != len(pairs) {
		t.Fatalf("HITs contain %d pairs; want %d", total, len(pairs))
	}
}

func TestGeneratePairHITsCeiling(t *testing.T) {
	// 7 pairs, k = 3 → ⌈7/3⌉ = 3 HITs with the last holding 1 pair.
	hits, err := GeneratePairHITs(paperPairs()[:7], 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 || len(hits[2].Pairs) != 1 {
		t.Fatalf("HIT layout wrong: %d HITs, last has %d pairs", len(hits), len(hits[len(hits)-1].Pairs))
	}
}

func TestGeneratePairHITsErrors(t *testing.T) {
	if _, err := GeneratePairHITs(paperPairs(), 0); err == nil {
		t.Fatal("k=0 should error")
	}
	hits, err := GeneratePairHITs(nil, 5)
	if err != nil || len(hits) != 0 {
		t.Fatal("empty input should produce no HITs")
	}
}

func TestAllGeneratorsSatisfyDefinition1(t *testing.T) {
	pairs := paperPairs()
	for _, gen := range allGenerators() {
		for _, k := range []int{2, 3, 4, 5, 10} {
			hits, err := gen.Generate(pairs, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", gen.Name(), k, err)
			}
			if err := ValidateCover(pairs, hits, k); err != nil {
				t.Errorf("%s k=%d: %v", gen.Name(), k, err)
			}
		}
	}
}

func TestAllGeneratorsRejectTinyK(t *testing.T) {
	for _, gen := range allGenerators() {
		if _, err := gen.Generate(paperPairs(), 1); err == nil {
			t.Errorf("%s should reject k=1", gen.Name())
		}
	}
}

// Regression: Random sized its membership array by the largest B
// endpoint, so a pair whose A held the largest ID indexed past its end.
func TestRandomLargestIDOnA(t *testing.T) {
	pairs := []record.Pair{{A: 5, B: 1}, {A: 2, B: 3}}
	hits, err := Random{}.Generate(pairs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateCover(pairs, hits, 3); err != nil {
		t.Error(err)
	}
}

// Regression: a self-loop made the graph-based generators return HITs
// that Covers rejects, and Random a one-record HIT. Every generator now
// rejects it, naming the pair.
func TestAllGeneratorsRejectSelfLoop(t *testing.T) {
	pairs := []record.Pair{{A: 1, B: 2}, {A: 7, B: 7}, {A: 2, B: 3}}
	for _, gen := range allGenerators() {
		hits, err := gen.Generate(pairs, 4)
		if err == nil || !strings.Contains(err.Error(), "(r7,r7)") {
			t.Errorf("%s: Generate = %v, %v; want an error naming (r7,r7)", gen.Name(), hits, err)
		}
	}
}

func TestAllGeneratorsEmptyInput(t *testing.T) {
	for _, gen := range allGenerators() {
		hits, err := gen.Generate(nil, 4)
		if err != nil {
			t.Errorf("%s on empty input: %v", gen.Name(), err)
		}
		if len(hits) != 0 {
			t.Errorf("%s emitted %d HITs for empty input", gen.Name(), len(hits))
		}
	}
}

func TestTwoTieredPaperOptimal(t *testing.T) {
	// Section 3.2/5.1: the optimal solution for the ten pairs with k=4 is
	// three cluster-based HITs; the two-tiered approach achieves it.
	hits, err := TwoTiered{}.Generate(paperPairs(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateCover(paperPairs(), hits, 4); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 3 {
		for _, h := range hits {
			t.Logf("HIT: %v", h.Records)
		}
		t.Fatalf("two-tiered generated %d HITs; want the optimal 3", len(hits))
	}
}

func TestTwoTieredPartitioningExample3(t *testing.T) {
	// Example 3: partitioning the LCC {r1..r7} with k=4 yields the SCCs
	// {r3,r4,r5,r6}, {r1,r2,r3,r7} and {r4,r7}. The first grows from the
	// max-degree seed r4 by adding r6, r5, r3 in that order.
	var lccPairs []record.Pair
	for _, p := range paperPairs() {
		if p.A <= 7 && p.B <= 7 {
			lccPairs = append(lccPairs, p)
		}
	}
	parts := partitionAll(TwoTiered{}, lccPairs, 4)
	if len(parts) != 3 {
		t.Fatalf("partitioning produced %d SCCs; want 3: %v", len(parts), parts)
	}
	want := [][]record.ID{
		{3, 4, 5, 6},
		{1, 2, 3, 7},
		{4, 7},
	}
	for i, w := range want {
		if len(parts[i]) != len(w) {
			t.Fatalf("SCC %d = %v; want %v", i, parts[i], w)
		}
		for j := range w {
			if parts[i][j] != w[j] {
				t.Fatalf("SCC %d = %v; want %v", i, parts[i], w)
			}
		}
	}
}

func TestApproxExample2(t *testing.T) {
	// Example 2: SEQ has 19 elements (9 vertices + 10 edges); with k=4 the
	// algorithm makes ⌈19/3⌉ = 7 cluster-based HITs.
	hits, err := Approx{}.Generate(paperPairs(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 7 {
		t.Fatalf("approximation generated %d HITs; want 7", len(hits))
	}
	if err := ValidateCover(paperPairs(), hits, 4); err != nil {
		t.Fatal(err)
	}
}

func TestTwoTieredBeatsApproximation(t *testing.T) {
	// Section 4: the approximation generates "many more" HITs than the
	// two-tiered approach (7 vs 3 on the worked example).
	two, err := TwoTiered{}.Generate(paperPairs(), 4)
	if err != nil {
		t.Fatal(err)
	}
	app, err := Approx{}.Generate(paperPairs(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(two) >= len(app) {
		t.Fatalf("two-tiered (%d) should beat approximation (%d)", len(two), len(app))
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	a, _ := Random{Seed: 42}.Generate(paperPairs(), 4)
	b, _ := Random{Seed: 42}.Generate(paperPairs(), 4)
	if len(a) != len(b) {
		t.Fatal("same seed produced different HIT counts")
	}
	for i := range a {
		if len(a[i].Records) != len(b[i].Records) {
			t.Fatal("same seed produced different HITs")
		}
		for j := range a[i].Records {
			if a[i].Records[j] != b[i].Records[j] {
				t.Fatal("same seed produced different HITs")
			}
		}
	}
}

// The error names the first violation deterministically: HIT order for
// size and duplicates, input order for the first uncovered pair.
func TestValidateCoverDetectsViolations(t *testing.T) {
	pairs := paperPairs()
	for _, tc := range []struct {
		name  string
		pairs []record.Pair
		hits  []ClusterHIT
		want  string
	}{
		{"oversized", pairs, []ClusterHIT{{Records: []record.ID{1, 2}}, {Records: []record.ID{1, 2, 3, 4, 5, 6, 7, 8, 9}}},
			"hitgen: HIT 1 has 9 records, exceeds k=4"},
		{"uncovered", pairs, []ClusterHIT{{Records: []record.ID{1, 2, 3, 7}}},
			"hitgen: pair (r3,r4) not covered by any HIT (6 uncovered)"},
		{"uncovered, input order", []record.Pair{{A: 9, B: 8}, {A: 1, B: 2}, {A: 2, B: 3}}, []ClusterHIT{{Records: []record.ID{1, 2}}},
			"hitgen: pair (r8,r9) not covered by any HIT (2 uncovered)"},
		{"duplicate", nil, []ClusterHIT{{Records: []record.ID{1, 2}}, {Records: []record.ID{5, 1, 5}}},
			"hitgen: HIT 1 contains duplicate record 5"},
	} {
		err := ValidateCover(tc.pairs, tc.hits, 4)
		if err == nil || err.Error() != tc.want {
			t.Errorf("%s: ValidateCover = %v; want %q", tc.name, err, tc.want)
		}
		if cov, _, err := Covers(tc.pairs, tc.hits, 4); cov != nil || err == nil || err.Error() != tc.want {
			t.Errorf("%s: Covers = %v, %v; want nil, %q", tc.name, cov, err, tc.want)
		}
	}
}

func TestBFSvsDFSBothValid(t *testing.T) {
	// A path graph: BFS and DFS differ in order but both must cover.
	var pairs []record.Pair
	for i := 0; i < 12; i++ {
		pairs = append(pairs, record.MakePair(record.ID(i), record.ID(i+1)))
	}
	for _, gen := range []ClusterGenerator{BFS{}, DFS{}} {
		hits, err := gen.Generate(pairs, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := ValidateCover(pairs, hits, 4); err != nil {
			t.Errorf("%s: %v", gen.Name(), err)
		}
	}
}

func TestTwoTieredStarGraph(t *testing.T) {
	// A star with 20 leaves and k=5: each HIT holds the hub + 4 leaves, so
	// the optimum is ⌈20/4⌉ = 5 HITs.
	var pairs []record.Pair
	for i := 1; i <= 20; i++ {
		pairs = append(pairs, record.MakePair(0, record.ID(i)))
	}
	hits, err := TwoTiered{}.Generate(pairs, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateCover(pairs, hits, 5); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 5 {
		t.Fatalf("star graph needed %d HITs; want 5", len(hits))
	}
}

func TestTwoTieredManySmallComponents(t *testing.T) {
	// 10 disjoint edges with k=6: each HIT can hold 3 edges → 4 HITs.
	var pairs []record.Pair
	for i := 0; i < 20; i += 2 {
		pairs = append(pairs, record.MakePair(record.ID(i), record.ID(i+1)))
	}
	hits, err := TwoTiered{}.Generate(pairs, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateCover(pairs, hits, 6); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 4 {
		t.Fatalf("needed %d HITs; want 4 (= ⌈10·2/6⌉)", len(hits))
	}
}
