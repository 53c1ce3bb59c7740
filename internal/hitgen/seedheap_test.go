package hitgen

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/crowder/crowder/internal/graph"
	"github.com/crowder/crowder/internal/record"
)

// allVertices lists g's vertex indices ascending.
func allVertices(g *graph.Graph) []int32 {
	all := make([]int32, len(g.IDs()))
	for v := range all {
		all[v] = int32(v)
	}
	return all
}

// partitionAll runs Algorithm 2 on the whole pair graph as one vertex
// set, as if it were a single large component.
func partitionAll(t TwoTiered, pairs []record.Pair, k int) [][]record.ID {
	g := graph.FromPairs(pairs)
	return newPartitioner(t, g, k).partition(allVertices(g), nil)
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

// The lazy seed heap picks exactly the seeds the oracle's full scan
// picks, so the two-tiered generator's HITs are unchanged on graphs full
// of degree ties.
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
			want, err := refTwoTiered(gen, pairs, k)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if !sameHITs(got, want) {
				t.Fatalf("%s: heap seeds gave %v; scan seeds %v", label, got, want)
			}
			parts := partitionAll(gen, pairs, k)
			ref := gen.refPartition(refFromPairs(pairs), k)
			if !slices.EqualFunc(parts, ref, slices.Equal) {
				t.Fatalf("%s: partition %v; scan %v", label, parts, ref)
			}
		}
	}
}

// The seed rule on hand-built graphs: none on an empty graph, a degree tie
// to the smallest ID, and r4 first on the paper's graph (Figure 8(a)).
func TestSeedHeapRule(t *testing.T) {
	seed := func(pairs []record.Pair, byID bool) (record.ID, bool) {
		g := graph.FromPairs(pairs)
		v, ok := newSeedHeap(g, allVertices(g), byID).pop(g)
		if !ok {
			return 0, false
		}
		return g.IDs()[v], true
	}
	if v, ok := seed(nil, false); ok {
		t.Errorf("empty graph yielded seed %v", v)
	}
	if v, ok := seed([]record.Pair{{A: 5, B: 6}, {A: 2, B: 3}}, false); !ok || v != 2 {
		t.Errorf("tie seed = %v, %v; want the smallest ID 2", v, ok)
	}
	if v, ok := seed(paperPairs(), false); !ok || v != 4 {
		t.Errorf("paper seed = %v, %v; want r4", v, ok)
	}
	if v, ok := seed(paperPairs(), true); !ok || v != 1 {
		t.Errorf("min-ID seed = %v, %v; want r1", v, ok)
	}
}
