// Package graph implements the undirected pair graph used by CrowdER's
// cluster-based HIT generation (Sections 4 and 5): vertices are record IDs,
// edges are record pairs to verify. It provides adjacency queries, degrees,
// connected components, BFS/DFS traversal orders, and the edges a vertex
// group covers.
package graph

import (
	"sort"

	"github.com/crowder/crowder/internal/record"
)

// Graph is an undirected simple graph over record IDs. Vertices exist only
// if they appear in at least one edge (isolated records never need to be
// placed in a HIT).
type Graph struct {
	adj   map[record.ID]map[record.ID]struct{}
	edges int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{adj: make(map[record.ID]map[record.ID]struct{})}
}

// FromPairs builds a graph whose edge set is exactly the given pairs
// (Section 4: "each vertex represents a record, and each edge denotes a
// pair of records").
func FromPairs(pairs []record.Pair) *Graph {
	g := New()
	for _, p := range pairs {
		g.AddEdge(p.A, p.B)
	}
	return g
}

// AddEdge inserts the undirected edge {a, b}. Self-loops are ignored.
// Re-adding an existing edge is a no-op.
func (g *Graph) AddEdge(a, b record.ID) {
	if a == b {
		return
	}
	if g.hasEdge(a, b) {
		return
	}
	g.addHalf(a, b)
	g.addHalf(b, a)
	g.edges++
}

func (g *Graph) addHalf(from, to record.ID) {
	m, ok := g.adj[from]
	if !ok {
		m = make(map[record.ID]struct{})
		g.adj[from] = m
	}
	m[to] = struct{}{}
}

func (g *Graph) hasEdge(a, b record.ID) bool {
	m, ok := g.adj[a]
	if !ok {
		return false
	}
	_, ok = m[b]
	return ok
}

// HasEdge reports whether the undirected edge {a, b} exists.
func (g *Graph) HasEdge(a, b record.ID) bool { return g.hasEdge(a, b) }

// RemoveEdge deletes the undirected edge {a, b} if present. Vertices whose
// last incident edge is removed are dropped from the graph.
func (g *Graph) RemoveEdge(a, b record.ID) {
	if !g.hasEdge(a, b) {
		return
	}
	delete(g.adj[a], b)
	delete(g.adj[b], a)
	if len(g.adj[a]) == 0 {
		delete(g.adj, a)
	}
	if len(g.adj[b]) == 0 {
		delete(g.adj, b)
	}
	g.edges--
}

// NumVertices returns the number of vertices with at least one edge.
func (g *Graph) NumVertices() int { return len(g.adj) }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.edges }

// Degree returns the number of edges incident to v.
func (g *Graph) Degree(v record.ID) int { return len(g.adj[v]) }

// Vertices returns all vertices in ascending ID order. Deterministic order
// keeps the HIT-generation algorithms reproducible.
func (g *Graph) Vertices() []record.ID {
	out := make([]record.ID, 0, len(g.adj))
	for v := range g.adj {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Neighbors returns v's adjacent vertices in ascending ID order.
func (g *Graph) Neighbors(v record.ID) []record.ID {
	m := g.adj[v]
	out := make([]record.ID, 0, len(m))
	for u := range m {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Edges returns all edges as canonical pairs in deterministic order.
func (g *Graph) Edges() []record.Pair {
	out := make([]record.Pair, 0, g.edges)
	for v, m := range g.adj {
		for u := range m {
			if v < u {
				out = append(out, record.Pair{A: v, B: u})
			}
		}
	}
	record.SortPairs(out)
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New()
	c.edges = g.edges
	for v, m := range g.adj {
		cm := make(map[record.ID]struct{}, len(m))
		for u := range m {
			cm[u] = struct{}{}
		}
		c.adj[v] = cm
	}
	return c
}

// Component is a connected component: a sorted set of vertex IDs.
type Component struct {
	Vertices []record.ID
}

// Size returns the number of vertices in the component.
func (c *Component) Size() int { return len(c.Vertices) }

// ConnectedComponents returns the connected components of the graph, each
// with vertices sorted ascending, and components sorted by their smallest
// vertex. Every vertex (all of which have degree ≥ 1) appears in exactly
// one component.
func (g *Graph) ConnectedComponents() []Component {
	seen := make(map[record.ID]bool, len(g.adj))
	var comps []Component
	for _, start := range g.Vertices() {
		if seen[start] {
			continue
		}
		// Iterative BFS to avoid recursion depth issues on long paths.
		var comp []record.ID
		queue := []record.ID{start}
		seen[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			comp = append(comp, v)
			for u := range g.adj[v] {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
		sort.Slice(comp, func(i, j int) bool { return comp[i] < comp[j] })
		comps = append(comps, Component{Vertices: comp})
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i].Vertices[0] < comps[j].Vertices[0] })
	return comps
}

// Subgraph returns the induced subgraph on the given vertex set: all edges
// of g with both endpoints in vs.
func (g *Graph) Subgraph(vs []record.ID) *Graph {
	in := make(map[record.ID]bool, len(vs))
	for _, v := range vs {
		in[v] = true
	}
	sub := New()
	for v := range g.adj {
		if !in[v] {
			continue
		}
		for u := range g.adj[v] {
			if in[u] && v < u {
				sub.AddEdge(v, u)
			}
		}
	}
	return sub
}

// BFSOrder returns all vertices in breadth-first order, starting each new
// traversal from the smallest unvisited vertex.
func (g *Graph) BFSOrder() []record.ID {
	seen := make(map[record.ID]bool, len(g.adj))
	var order []record.ID
	for _, start := range g.Vertices() {
		if seen[start] {
			continue
		}
		queue := []record.ID{start}
		seen[start] = true
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, u := range g.Neighbors(v) {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return order
}

// DFSOrder returns all vertices in depth-first (preorder) order, starting
// each new traversal from the smallest unvisited vertex.
func (g *Graph) DFSOrder() []record.ID {
	seen := make(map[record.ID]bool, len(g.adj))
	var order []record.ID
	for _, start := range g.Vertices() {
		if seen[start] {
			continue
		}
		stack := []record.ID{start}
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[v] {
				continue
			}
			seen[v] = true
			order = append(order, v)
			// Push neighbors in reverse so the smallest is visited first.
			nbrs := g.Neighbors(v)
			for i := len(nbrs) - 1; i >= 0; i-- {
				if !seen[nbrs[i]] {
					stack = append(stack, nbrs[i])
				}
			}
		}
	}
	return order
}

// EdgesCoveredBy returns the edges of g whose endpoints both lie in the
// vertex set vs (i.e. the edges a cluster-based HIT containing vs can
// check, per Section 3.2).
func (g *Graph) EdgesCoveredBy(vs []record.ID) []record.Pair {
	in := make(map[record.ID]bool, len(vs))
	for _, v := range vs {
		in[v] = true
	}
	var out []record.Pair
	for _, v := range vs {
		for u := range g.adj[v] {
			if v < u && in[u] {
				out = append(out, record.Pair{A: v, B: u})
			}
		}
	}
	record.SortPairs(out)
	return out
}

// BFSPrefix returns the first max vertices in breadth-first order (the
// same order BFSOrder produces), stopping early — the building block of
// the BFS-based HIT generator, which only ever needs k vertices per HIT.
func (g *Graph) BFSPrefix(max int) []record.ID {
	seen := make(map[record.ID]bool, max*2)
	var order []record.ID
	for _, start := range g.Vertices() {
		if len(order) >= max {
			break
		}
		if seen[start] {
			continue
		}
		queue := []record.ID{start}
		seen[start] = true
		for len(queue) > 0 && len(order) < max {
			v := queue[0]
			queue = queue[1:]
			order = append(order, v)
			for _, u := range g.Neighbors(v) {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return order
}

// DFSPrefix returns the first max vertices in depth-first preorder (the
// same order DFSOrder produces), stopping early.
func (g *Graph) DFSPrefix(max int) []record.ID {
	seen := make(map[record.ID]bool, max*2)
	var order []record.ID
	for _, start := range g.Vertices() {
		if len(order) >= max {
			break
		}
		if seen[start] {
			continue
		}
		stack := []record.ID{start}
		for len(stack) > 0 && len(order) < max {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if seen[v] {
				continue
			}
			seen[v] = true
			order = append(order, v)
			nbrs := g.Neighbors(v)
			for i := len(nbrs) - 1; i >= 0; i-- {
				if !seen[nbrs[i]] {
					stack = append(stack, nbrs[i])
				}
			}
		}
	}
	return order
}
