package graph

import (
	"math/rand"
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

func TestFromPairsBasics(t *testing.T) {
	g := FromPairs(paperPairs())
	if g.NumVertices() != 9 {
		t.Errorf("NumVertices = %d; want 9", g.NumVertices())
	}
	if g.NumEdges() != 10 {
		t.Errorf("NumEdges = %d; want 10", g.NumEdges())
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Error("HasEdge should be symmetric")
	}
	if g.HasEdge(1, 9) {
		t.Error("edge (1,9) should not exist")
	}
}

func TestAddEdgeIdempotentAndSelfLoop(t *testing.T) {
	g := New()
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	g.AddEdge(1, 1)
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d; want 1", g.NumEdges())
	}
	if g.NumVertices() != 2 {
		t.Errorf("NumVertices = %d; want 2", g.NumVertices())
	}
}

func TestRemoveEdge(t *testing.T) {
	g := FromPairs(paperPairs())
	g.RemoveEdge(8, 9)
	if g.HasEdge(8, 9) {
		t.Error("edge should be removed")
	}
	if g.NumEdges() != 9 {
		t.Errorf("NumEdges = %d; want 9", g.NumEdges())
	}
	// Vertices 8, 9 became isolated and must be dropped.
	if g.NumVertices() != 7 {
		t.Errorf("NumVertices = %d; want 7", g.NumVertices())
	}
	// Removing a non-existent edge is a no-op.
	g.RemoveEdge(8, 9)
	if g.NumEdges() != 9 {
		t.Error("double remove changed the edge count")
	}
}

func TestDegreePaperExample(t *testing.T) {
	// Figure 8(a): r4 has the maximum degree (4).
	g := FromPairs(paperPairs())
	if d := g.Degree(4); d != 4 {
		t.Errorf("Degree(r4) = %d; want 4", d)
	}
	if d := g.Degree(1); d != 2 {
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
	vs := g.Vertices()
	for i := 1; i < len(vs); i++ {
		if vs[i-1] >= vs[i] {
			t.Fatal("Vertices not sorted")
		}
	}
	ns := g.Neighbors(4)
	want := []record.ID{3, 5, 6, 7}
	if len(ns) != len(want) {
		t.Fatalf("Neighbors(4) = %v; want %v", ns, want)
	}
	for i := range want {
		if ns[i] != want[i] {
			t.Fatalf("Neighbors(4) = %v; want %v", ns, want)
		}
	}
}

func TestEdgesDeterministic(t *testing.T) {
	g := FromPairs(paperPairs())
	es := g.Edges()
	if len(es) != 10 {
		t.Fatalf("Edges len = %d; want 10", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i-1].A > es[i].A || (es[i-1].A == es[i].A && es[i-1].B >= es[i].B) {
			t.Fatal("Edges not in canonical sorted order")
		}
	}
}

func TestClone(t *testing.T) {
	g := FromPairs(paperPairs())
	c := g.Clone()
	c.RemoveEdge(1, 2)
	if !g.HasEdge(1, 2) {
		t.Error("mutating clone affected original")
	}
	if c.NumEdges() != g.NumEdges()-1 {
		t.Error("clone edge count wrong after removal")
	}
}

func TestSubgraph(t *testing.T) {
	g := FromPairs(paperPairs())
	sub := g.Subgraph([]record.ID{1, 2, 3, 7})
	// Edges within {1,2,3,7}: (1,2), (1,7), (2,7), (2,3).
	if sub.NumEdges() != 4 {
		t.Errorf("subgraph edges = %d; want 4", sub.NumEdges())
	}
	if sub.HasEdge(3, 4) {
		t.Error("subgraph should not contain (3,4)")
	}
}

func TestBFSOrderVisitsAll(t *testing.T) {
	g := FromPairs(paperPairs())
	order := g.BFSOrder()
	if len(order) != g.NumVertices() {
		t.Fatalf("BFS visited %d vertices; want %d", len(order), g.NumVertices())
	}
	// BFS from vertex 1 visits 1, then neighbors 2 and 7, etc.
	if order[0] != 1 || order[1] != 2 || order[2] != 7 {
		t.Errorf("BFS prefix = %v; want [1 2 7 ...]", order[:3])
	}
}

func TestDFSOrderVisitsAll(t *testing.T) {
	g := FromPairs(paperPairs())
	order := g.DFSOrder()
	if len(order) != g.NumVertices() {
		t.Fatalf("DFS visited %d vertices; want %d", len(order), g.NumVertices())
	}
	// DFS from 1 goes deep: 1 → 2 → 3 → 4 → ...
	if order[0] != 1 || order[1] != 2 || order[2] != 3 || order[3] != 4 {
		t.Errorf("DFS prefix = %v; want [1 2 3 4 ...]", order[:4])
	}
}

func TestEdgesCoveredBy(t *testing.T) {
	g := FromPairs(paperPairs())
	// Section 3.2's optimal H1 = {r1, r2, r3, r7} covers 4 edges.
	cov := g.EdgesCoveredBy([]record.ID{1, 2, 3, 7})
	if len(cov) != 4 {
		t.Errorf("covered %d edges; want 4", len(cov))
	}
}

// randomGraph builds a deterministic pseudo-random graph for properties.
func randomGraph(seed int64, n, m int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	for i := 0; i < m; i++ {
		a := record.ID(rng.Intn(n))
		b := record.ID(rng.Intn(n))
		g.AddEdge(a, b)
	}
	return g
}

// Property: connected components partition the vertex set and edges never
// cross components.
func TestComponentsPartitionProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 30, 40)
		comps := g.ConnectedComponents()
		seen := make(map[record.ID]int)
		total := 0
		for ci, c := range comps {
			total += c.Size()
			for _, v := range c.Vertices {
				if _, dup := seen[v]; dup {
					return false
				}
				seen[v] = ci
			}
		}
		if total != g.NumVertices() {
			return false
		}
		for _, e := range g.Edges() {
			if seen[e.A] != seen[e.B] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: BFS and DFS orders are permutations of the vertex set.
func TestTraversalPermutationProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 25, 30)
		for _, order := range [][]record.ID{g.BFSOrder(), g.DFSOrder()} {
			if len(order) != g.NumVertices() {
				return false
			}
			seen := make(map[record.ID]bool)
			for _, v := range order {
				if seen[v] {
					return false
				}
				seen[v] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: sum of degrees = 2 × #edges.
func TestHandshakeProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 20, 35)
		sum := 0
		for _, v := range g.Vertices() {
			sum += g.Degree(v)
		}
		return sum == 2*g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: EdgesCoveredBy(all vertices) returns every edge.
func TestFullCoverProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 15, 25)
		return len(g.EdgesCoveredBy(g.Vertices())) == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestBFSPrefixMatchesFullOrder(t *testing.T) {
	g := FromPairs(paperPairs())
	full := g.BFSOrder()
	for _, k := range []int{1, 3, 5, 9, 20} {
		prefix := g.BFSPrefix(k)
		want := k
		if want > len(full) {
			want = len(full)
		}
		if len(prefix) != want {
			t.Fatalf("BFSPrefix(%d) has %d vertices; want %d", k, len(prefix), want)
		}
		for i := range prefix {
			if prefix[i] != full[i] {
				t.Fatalf("BFSPrefix(%d)[%d] = %v; full order has %v", k, i, prefix[i], full[i])
			}
		}
	}
}

func TestDFSPrefixMatchesFullOrder(t *testing.T) {
	g := FromPairs(paperPairs())
	full := g.DFSOrder()
	for _, k := range []int{1, 4, 9, 15} {
		prefix := g.DFSPrefix(k)
		want := k
		if want > len(full) {
			want = len(full)
		}
		if len(prefix) != want {
			t.Fatalf("DFSPrefix(%d) has %d vertices; want %d", k, len(prefix), want)
		}
		for i := range prefix {
			if prefix[i] != full[i] {
				t.Fatalf("DFSPrefix(%d)[%d] = %v; full order has %v", k, i, prefix[i], full[i])
			}
		}
	}
}

// Property: prefixes agree with full traversals on random graphs.
func TestPrefixConsistencyProperty(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 20, 30)
		bfs, dfs := g.BFSOrder(), g.DFSOrder()
		for _, k := range []int{1, 5, 50} {
			bp, dp := g.BFSPrefix(k), g.DFSPrefix(k)
			for i := range bp {
				if bp[i] != bfs[i] {
					return false
				}
			}
			for i := range dp {
				if dp[i] != dfs[i] {
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

func TestPrefixOnEmptyGraph(t *testing.T) {
	g := New()
	if len(g.BFSPrefix(5)) != 0 || len(g.DFSPrefix(5)) != 0 {
		t.Error("prefixes of an empty graph should be empty")
	}
}
