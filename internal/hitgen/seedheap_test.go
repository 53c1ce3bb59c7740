package hitgen

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/crowder/crowder/internal/graph"
	"github.com/crowder/crowder/internal/record"
)

// scanSeed is the reference seed rule: a full scan for the maximum
// degree, ties to the smallest ID, or the smallest ID under SeedMinID.
func scanSeed(g *graph.Graph, byID bool) (record.ID, bool) {
	var best record.ID
	bestDeg := -1
	for _, v := range g.Vertices() {
		if byID {
			return v, true
		}
		if d := g.Degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best, bestDeg >= 0
}

// scanPartition is partition with seeds picked by scanSeed.
func (t TwoTiered) scanPartition(lcc *graph.Graph, k int) [][]record.ID {
	var sccs [][]record.ID
	for {
		seed, ok := scanSeed(lcc, t.Seed == SeedMinID)
		if !ok {
			return sccs
		}
		scc := map[record.ID]bool{seed: true}
		conn := make(map[record.ID]int)
		for _, u := range lcc.Neighbors(seed) {
			conn[u] = 1
		}
		for len(scc) < k && len(conn) > 0 {
			rnew := t.pickNext(lcc, conn)
			delete(conn, rnew)
			scc[rnew] = true
			for _, u := range lcc.Neighbors(rnew) {
				if !scc[u] {
					conn[u]++
				}
			}
		}
		members := make([]record.ID, 0, len(scc))
		for r := range scc {
			members = append(members, r)
		}
		sortHIT(members)
		sccs = append(sccs, members)
		for _, e := range lcc.EdgesCoveredBy(members) {
			lcc.RemoveEdge(e.A, e.B)
		}
	}
}

// scanGenerate is Generate with scanPartition as the top tier.
func (t TwoTiered) scanGenerate(pairs []record.Pair, k int) ([]ClusterHIT, error) {
	g := buildGraph(pairs)
	var sccs, parts [][]record.ID
	for _, cc := range g.ConnectedComponents() {
		if cc.Size() <= k {
			sccs = append(sccs, cc.Vertices)
		} else {
			parts = append(parts, t.scanPartition(g.Subgraph(cc.Vertices), k)...)
		}
	}
	return t.pack(append(sccs, parts...), k)
}

// tiedPairs draws a graph whose degrees tie often: a ring, a grid, or a
// sparse random graph over few distinct degrees, with shuffled IDs so
// ties do not line up with ID order.
func tiedPairs(rng *rand.Rand) []record.Pair {
	n := 6 + rng.Intn(60)
	ids := rng.Perm(3 * n)
	id := func(i int) record.ID { return record.ID(ids[i%n]) }
	set := record.NewPairSet()
	add := func(a, b record.ID) {
		if a != b {
			set.Add(a, b)
		}
	}
	switch rng.Intn(3) {
	case 0: // ring, plus a few chords
		for i := 0; i < n; i++ {
			add(id(i), id(i+1))
		}
		for i := rng.Intn(4); i > 0; i-- {
			add(id(rng.Intn(n)), id(rng.Intn(n)+n/2))
		}
	case 1: // w-wide grid
		w := 2 + rng.Intn(4)
		for i := 0; i < n; i++ {
			if (i+1)%w != 0 {
				add(id(i), id(i+1))
			}
			if i+w < n {
				add(id(i), id(i+w))
			}
		}
	default:
		for _, p := range randomPairs(rng, n, n+rng.Intn(n)) {
			add(id(int(p.A)), id(int(p.B)))
		}
	}
	return set.Slice()
}

// The lazy seed heap picks exactly the seeds the full scan picks, so the
// two-tiered generator's HITs are unchanged on graphs full of degree ties.
func TestSeedHeapMatchesLinearScan(t *testing.T) {
	gens := []TwoTiered{{}, {DisableTieBreak: true}, {Seed: SeedMinID}}
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pairs := tiedPairs(rng)
		k := 2 + rng.Intn(7)
		for _, gen := range gens {
			label := fmt.Sprintf("%s seed %d k=%d", gen.Name(), seed, k)
			got, err := gen.Generate(pairs, k)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, err := gen.scanGenerate(pairs, k)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !slices.EqualFunc(got, want, func(a, b ClusterHIT) bool { return slices.Equal(a.Records, b.Records) }) {
				t.Fatalf("%s: heap seeds gave %v; scan seeds %v", label, got, want)
			}
			parts := gen.partition(buildGraph(pairs), k)
			ref := gen.scanPartition(buildGraph(pairs), k)
			if !slices.EqualFunc(parts, ref, slices.Equal) {
				t.Fatalf("%s: partition %v; scan %v", label, parts, ref)
			}
		}
	}
}

// The seed rule on hand-built graphs: none on an empty graph, a degree tie
// to the smallest ID, and r4 first on the paper's graph (Figure 8(a)).
func TestSeedHeapRule(t *testing.T) {
	if v, ok := newSeedHeap(graph.New(), false).pop(graph.New()); ok {
		t.Errorf("empty graph yielded seed %v", v)
	}
	tie := graph.FromPairs([]record.Pair{{A: 5, B: 6}, {A: 2, B: 3}})
	if v, ok := newSeedHeap(tie, false).pop(tie); !ok || v != 2 {
		t.Errorf("tie seed = %v, %v; want the smallest ID 2", v, ok)
	}
	paper := buildGraph(paperPairs())
	if v, ok := newSeedHeap(paper, false).pop(paper); !ok || v != 4 {
		t.Errorf("paper seed = %v, %v; want r4", v, ok)
	}
	if v, ok := newSeedHeap(paper, true).pop(paper); !ok || v != 1 {
		t.Errorf("min-ID seed = %v, %v; want r1", v, ok)
	}
}
