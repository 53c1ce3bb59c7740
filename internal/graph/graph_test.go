package graph

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"github.com/crowder/crowder/internal/record"
)

// paperPairs are the ten above-threshold pairs of Figure 2(a) / Figure 5.
// The top component is {r1,r2,r3,r4,r5,r6,r7}; the bottom is {r8,r9}.
func paperPairs() []record.Pair {
	mk := record.MakePair
	return []record.Pair{
		mk(1, 2), mk(1, 7), mk(2, 7), mk(2, 3),
		mk(3, 4), mk(4, 5), mk(4, 6), mk(4, 7),
		mk(5, 6), mk(8, 9),
	}
}

// v returns the vertex index of record id.
func (g *Graph) v(id record.ID) int32 {
	i, ok := slices.BinarySearch(g.ids, id)
	if !ok {
		panic("no vertex")
	}
	return int32(i)
}

// liveNeighbors returns v's neighbours over live edges, as record IDs.
func (g *Graph) liveNeighbors(v int32) []record.ID {
	var out []record.ID
	nbrs, edges := g.Row(v)
	for i, u := range nbrs {
		if g.Alive(edges[i]) {
			out = append(out, g.ids[u])
		}
	}
	return out
}

func TestFromPairsBasics(t *testing.T) {
	g := FromPairs(paperPairs())
	if len(g.IDs()) != 9 {
		t.Errorf("%d vertices; want 9", len(g.IDs()))
	}
	if g.NumEdges() != 10 {
		t.Errorf("NumEdges = %d; want 10", g.NumEdges())
	}
	if !slices.Contains(g.liveNeighbors(g.v(1)), 2) || !slices.Contains(g.liveNeighbors(g.v(2)), 1) {
		t.Error("adjacency should be symmetric")
	}
	if slices.Contains(g.liveNeighbors(g.v(1)), 9) {
		t.Error("edge (1,9) should not exist")
	}
}

// Repeated pairs in either orientation are one edge, a self-loop is none,
// and a record seen only in a self-loop is a vertex in no component.
func TestFromPairsDedupAndSelfLoop(t *testing.T) {
	g := FromPairs([]record.Pair{{A: 1, B: 2}, {A: 2, B: 1}, {A: 1, B: 1}, {A: 3, B: 3}, {A: 1, B: 2}})
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d; want 1", g.NumEdges())
	}
	if got := g.ConnectedComponents(); len(got) != 1 || !slices.Equal(got[0].Vertices, []record.ID{1, 2}) {
		t.Errorf("components = %v; want [[1 2]]", got)
	}
	if d := g.Degree(g.v(3)); d != 0 {
		t.Errorf("Degree(r3) = %d; want 0", d)
	}
}

// Renumber numbers the distinct endpoints in ascending ID order, whatever
// their range or sign.
func TestRenumber(t *testing.T) {
	ids, ends := Renumber([]record.Pair{{A: 1 << 40, B: -7}, {A: 5, B: 1 << 40}, {A: 5, B: 5}})
	if want := []record.ID{-7, 5, 1 << 40}; !slices.Equal(ids, want) {
		t.Errorf("ids = %v; want %v", ids, want)
	}
	if want := []int32{2, 0, 1, 2, 1, 1}; !slices.Equal(ends, want) {
		t.Errorf("ends = %v; want %v", ends, want)
	}
}

// Peel removes exactly the live edges inside the vertex set; a vertex
// left with none is dead and no traversal starts from it.
func TestPeel(t *testing.T) {
	g := FromPairs(paperPairs())
	g.Peel([]int32{g.v(8), g.v(9)})
	if g.NumEdges() != 9 || g.Degree(g.v(8)) != 0 || g.Degree(g.v(9)) != 0 {
		t.Errorf("after peeling (8,9): %d edges, degrees %d, %d", g.NumEdges(), g.Degree(g.v(8)), g.Degree(g.v(9)))
	}
	// Section 3.2's optimal H1 = {r1, r2, r3, r7} covers 4 edges; peeling
	// it again removes nothing.
	h1 := []int32{g.v(1), g.v(2), g.v(3), g.v(7)}
	for _, want := range []int{5, 5} {
		if g.Peel(h1); g.NumEdges() != want {
			t.Errorf("after peeling H1: %d edges; want %d", g.NumEdges(), want)
		}
	}
	if got := g.BFSPrefix(math.MaxInt); !slices.Equal(got, []int32{g.v(3), g.v(4), g.v(5), g.v(6), g.v(7)}) {
		t.Errorf("live BFS = %v; want r3 r4 r5 r6 r7", got)
	}
	if got := g.liveNeighbors(g.v(4)); !slices.Equal(got, []record.ID{3, 5, 6, 7}) {
		t.Errorf("live neighbours of r4 = %v", got)
	}
	if got := g.liveNeighbors(g.v(2)); len(got) != 0 {
		t.Errorf("live neighbours of r2 = %v; want none", got)
	}
	// Components are those of the graph as built.
	if got := g.ConnectedComponents(); len(got) != 2 {
		t.Errorf("%d components after peeling; want 2", len(got))
	}
}

// The traversal cursor sits on the smallest live vertex once peeling has
// killed the vertices below it.
func TestCursorSkipsDead(t *testing.T) {
	g := randomGraph(3, 40, 80)
	for g.NumEdges() > 0 {
		live := g.liveVertices()
		if got := g.live(); got != live[0] {
			t.Fatalf("cursor at %d; the smallest live vertex is %d", got, live[0])
		}
		g.Peel(g.BFSPrefix(3))
	}
	if got := g.live(); int(got) != len(g.IDs()) {
		t.Errorf("cursor at %d on a graph with no edges; want %d", got, len(g.IDs()))
	}
}

func TestDegreePaperExample(t *testing.T) {
	// Figure 8(a): r4 has the maximum degree (4).
	g := FromPairs(paperPairs())
	if d := g.Degree(g.v(4)); d != 4 {
		t.Errorf("Degree(r4) = %d; want 4", d)
	}
	if d := g.Degree(g.v(1)); d != 2 {
		t.Errorf("Degree(r1) = %d; want 2", d)
	}
}

func TestConnectedComponentsPaperExample(t *testing.T) {
	// Section 5.1: the Figure 5 graph "consists of two connected
	// components"; with k=4 the top one (7 vertices) is an LCC and the
	// bottom one ({r8, r9}) is an SCC.
	g := FromPairs(paperPairs())
	comps := g.ConnectedComponents()
	if len(comps) != 2 {
		t.Fatalf("got %d components; want 2", len(comps))
	}
	if comps[0].Size() != 7 {
		t.Errorf("first component size = %d; want 7", comps[0].Size())
	}
	if comps[1].Size() != 2 {
		t.Errorf("second component size = %d; want 2", comps[1].Size())
	}
	want := []record.ID{1, 2, 3, 4, 5, 6, 7}
	for i, v := range want {
		if comps[0].Vertices[i] != v {
			t.Fatalf("component vertices = %v; want %v", comps[0].Vertices, want)
		}
	}
}

func TestVerticesAndNeighborsSorted(t *testing.T) {
	g := FromPairs(paperPairs())
	if !slices.IsSorted(g.IDs()) {
		t.Fatal("vertices not in ascending ID order")
	}
	if ns := g.liveNeighbors(g.v(4)); !slices.Equal(ns, []record.ID{3, 5, 6, 7}) {
		t.Fatalf("neighbours of r4 = %v; want [3 5 6 7]", ns)
	}
}

// Both half-edges of an edge carry its id, and the ids number the edges.
func TestEdgeIDs(t *testing.T) {
	g := randomGraph(7, 30, 60)
	seen := make([]int, g.NumEdges())
	for v := range int32(len(g.IDs())) {
		nbrs, edges := g.Row(v)
		for i, u := range nbrs {
			un, ue := g.Row(u)
			j, ok := slices.BinarySearch(un, v)
			if !ok || ue[j] != edges[i] {
				t.Fatalf("edge %d→%d has id %d; its twin differs", v, u, edges[i])
			}
			seen[edges[i]]++
		}
	}
	for e, n := range seen {
		if n != 2 {
			t.Fatalf("edge id %d on %d half-edges; want 2", e, n)
		}
	}
}

func TestBFSOrderVisitsAll(t *testing.T) {
	g := FromPairs(paperPairs())
	order := g.BFSPrefix(math.MaxInt)
	if len(order) != len(g.IDs()) {
		t.Fatalf("BFS visited %d vertices; want %d", len(order), len(g.IDs()))
	}
	// BFS from vertex 1 visits 1, then neighbors 2 and 7, etc.
	if want := []int32{g.v(1), g.v(2), g.v(7)}; !slices.Equal(order[:3], want) {
		t.Errorf("BFS prefix = %v; want %v", order[:3], want)
	}
}

func TestDFSOrderVisitsAll(t *testing.T) {
	g := FromPairs(paperPairs())
	order := g.DFSPrefix(math.MaxInt)
	if len(order) != len(g.IDs()) {
		t.Fatalf("DFS visited %d vertices; want %d", len(order), len(g.IDs()))
	}
	// DFS from 1 goes deep: 1 → 2 → 3 → 4 → ...
	if want := []int32{g.v(1), g.v(2), g.v(3), g.v(4)}; !slices.Equal(order[:4], want) {
		t.Errorf("DFS prefix = %v; want %v", order[:4], want)
	}
}

// randomGraph builds a deterministic pseudo-random graph for properties;
// some pairs are self-loops.
func randomGraph(seed int64, n, m int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	pairs := make([]record.Pair, m)
	for i := range pairs {
		pairs[i] = record.Pair{A: record.ID(rng.Intn(n)), B: record.ID(rng.Intn(n))}
	}
	return FromPairs(pairs)
}

// liveVertices lists the vertices with a live edge.
func (g *Graph) liveVertices() []int32 {
	var out []int32
	for v := range int32(len(g.IDs())) {
		if g.Degree(v) > 0 {
			out = append(out, v)
		}
	}
	return out
}

// Property: connected components partition the vertices with edges, and
// edges never cross components.
func TestComponentsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 30, 40)
		comp := make([]int, len(g.IDs()))
		total := 0
		for ci, c := range g.Components() {
			total += len(c)
			for _, v := range c {
				if comp[v] != 0 {
					return false
				}
				comp[v] = ci + 1
			}
		}
		if total != len(g.liveVertices()) {
			return false
		}
		for v := range int32(len(g.IDs())) {
			nbrs, _ := g.Row(v)
			for _, u := range nbrs {
				if comp[u] != comp[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: BFS and DFS orders are permutations of the live vertices.
func TestTraversalPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 25, 30)
		for _, order := range [][]int32{g.BFSPrefix(math.MaxInt), g.DFSPrefix(math.MaxInt)} {
			if !slices.Equal(slices.Sorted(slices.Values(order)), g.liveVertices()) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: sum of degrees = 2 × #edges, before and after a peel.
func TestHandshakeProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 20, 35)
		for range 2 {
			sum := 0
			for v := range int32(len(g.IDs())) {
				sum += g.Degree(v)
			}
			if sum != 2*g.NumEdges() {
				return false
			}
			g.Peel(g.BFSPrefix(5))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: peeling every vertex removes every edge.
func TestFullCoverProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 15, 25)
		g.Peel(g.liveVertices())
		return g.NumEdges() == 0 && len(g.liveVertices()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBFSPrefixMatchesFullOrder(t *testing.T) {
	g := FromPairs(paperPairs())
	full := g.BFSPrefix(math.MaxInt)
	for _, k := range []int{1, 3, 5, 9, 20} {
		if prefix := g.BFSPrefix(k); !slices.Equal(prefix, full[:min(k, len(full))]) {
			t.Fatalf("BFSPrefix(%d) = %v; full order %v", k, prefix, full)
		}
	}
}

func TestDFSPrefixMatchesFullOrder(t *testing.T) {
	g := FromPairs(paperPairs())
	full := g.DFSPrefix(math.MaxInt)
	for _, k := range []int{1, 4, 9, 15} {
		if prefix := g.DFSPrefix(k); !slices.Equal(prefix, full[:min(k, len(full))]) {
			t.Fatalf("DFSPrefix(%d) = %v; full order %v", k, prefix, full)
		}
	}
}

// Property: prefixes agree with full traversals on random graphs, also
// once peeling has killed vertices.
func TestPrefixConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 20, 30)
		for range 3 {
			bfs, dfs := g.BFSPrefix(math.MaxInt), g.DFSPrefix(math.MaxInt)
			for _, k := range []int{1, 5, 50} {
				if !slices.Equal(g.BFSPrefix(k), bfs[:min(k, len(bfs))]) || !slices.Equal(g.DFSPrefix(k), dfs[:min(k, len(dfs))]) {
					return false
				}
			}
			g.Peel(g.DFSPrefix(4))
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPrefixOnEmptyGraph(t *testing.T) {
	g := FromPairs(nil)
	if len(g.BFSPrefix(5)) != 0 || len(g.DFSPrefix(5)) != 0 || len(g.ConnectedComponents()) != 0 {
		t.Error("an empty graph should have no prefixes and no components")
	}
}
