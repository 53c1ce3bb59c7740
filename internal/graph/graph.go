// Package graph implements the undirected pair graph used by CrowdER's
// cluster-based HIT generation (Sections 4 and 5): vertices are records,
// edges are record pairs to verify.
//
// A Graph is a CSR (compressed sparse row) layout over dense vertex
// indices. FromPairs renumbers the records once, in ascending record-ID
// order, so vertex v is the v-th smallest record ID and comparing indices
// compares IDs. Row v of the adjacency lists v's neighbours ascending,
// deduplicated and without self-loops; each half-edge carries the id of
// its undirected edge. The layout never changes after FromPairs. What
// changes is which edges are live: HIT generation peels the edges a HIT
// covers, an edge is live until peeled, and a vertex is live while it has
// a live edge. Degree counts live edges only. Edges never revive, so a
// vertex that dies stays dead.
//
// A Graph keeps scratch state for its traversals and is not safe for
// concurrent use.
package graph

import (
	"slices"

	"github.com/crowder/crowder/internal/record"
)

// Graph is an undirected simple graph over the records of a pair list.
type Graph struct {
	ids   []record.ID // vertex → record ID, ascending
	start []int32     // row v is adj[start[v]:start[v+1]]
	adj   []int32     // neighbour vertices, ascending within a row
	eid   []int32     // the edge id of each half-edge in adj
	alive []bool      // per edge id
	deg   []int32     // live degree per vertex
	edges int         // live edges
	first int32       // no vertex below first is live
	mark  []int32     // traversal and peel scratch: mark[v] == stamp
	stamp int32
}

// Renumber maps the endpoints of pairs onto dense vertex indices: ids
// lists the distinct endpoint IDs ascending, and ends[2i], ends[2i+1] are
// the indices of pairs[i].A and pairs[i].B. It is one sort of the
// endpoints, so the memory is O(|P|) whatever the IDs' range.
func Renumber(pairs []record.Pair) (ids []record.ID, ends []int32) {
	ends = make([]int32, 2*len(pairs))
	ids = make([]record.ID, 0, len(ends))
	for _, p := range pairs {
		ids = append(ids, p.A, p.B)
	}
	slices.Sort(ids)
	ids = slices.Clip(slices.Compact(ids))
	for i, p := range pairs {
		a, _ := slices.BinarySearch(ids, p.A)
		b, _ := slices.BinarySearch(ids, p.B)
		ends[2*i], ends[2*i+1] = int32(a), int32(b)
	}
	return ids, ends
}

// FromPairs builds a graph whose edge set is exactly the given pairs
// (Section 4: "each vertex represents a record, and each edge denotes a
// pair of records"). Repeated pairs, in either orientation, are one edge;
// self-loops are dropped.
func FromPairs(pairs []record.Pair) *Graph {
	ids, ends := Renumber(pairs)
	n := len(ids)
	g := &Graph{ids: ids, start: make([]int32, n+1), deg: make([]int32, n), mark: make([]int32, n)}
	// Fill the rows in pair order, then sort each row and drop repeats,
	// closing the gaps as rows shrink.
	for i := 0; i < len(ends); i += 2 {
		if a, b := ends[i], ends[i+1]; a != b {
			g.start[a+1]++
			g.start[b+1]++
		}
	}
	for v := range n {
		g.start[v+1] += g.start[v]
	}
	adj := make([]int32, g.start[n])
	fill := slices.Clone(g.start[:n])
	for i := 0; i < len(ends); i += 2 {
		if a, b := ends[i], ends[i+1]; a != b {
			adj[fill[a]], adj[fill[b]] = b, a
			fill[a]++
			fill[b]++
		}
	}
	w := int32(0)
	for v := range n {
		row := adj[g.start[v]:g.start[v+1]]
		slices.Sort(row)
		row = slices.Compact(row)
		g.start[v], g.deg[v] = w, int32(len(row))
		w += int32(copy(adj[w:], row))
	}
	g.start[n] = w
	g.adj, g.eid = adj[:w:w], make([]int32, w)
	g.alive = make([]bool, w/2)
	g.edges = int(w / 2)
	// Edge ids in (low, high) order. Row u lists its lower neighbours
	// first and ascending, and they are reached in that order as v
	// ascends, so next[u] walks the twin half-edges.
	next := fill
	copy(next, g.start[:n])
	e := int32(0)
	for v := range int32(n) {
		for i := g.start[v]; i < g.start[v+1]; i++ {
			if u := g.adj[i]; u > v {
				g.eid[i], g.eid[next[u]] = e, e
				next[u]++
				g.alive[e] = true
				e++
			}
		}
	}
	return g
}

// IDs returns the record ID of each vertex: the renumbering, ascending.
func (g *Graph) IDs() []record.ID { return g.ids }

// NumEdges returns the number of live edges.
func (g *Graph) NumEdges() int { return g.edges }

// Degree returns the number of live edges incident to v.
func (g *Graph) Degree(v int32) int { return int(g.deg[v]) }

// Row returns v's neighbours ascending and, at the same positions, the
// ids of the edges to them, live or not; see Alive.
func (g *Graph) Row(v int32) (nbrs, edges []int32) {
	s, e := g.start[v], g.start[v+1]
	return g.adj[s:e], g.eid[s:e]
}

// Alive reports whether edge e is live.
func (g *Graph) Alive(e int32) bool { return g.alive[e] }

// Peel removes every live edge with both endpoints in vs: the edges a
// cluster-based HIT holding vs covers (Section 3.2).
func (g *Graph) Peel(vs []int32) {
	g.stamp++
	for _, v := range vs {
		g.mark[v] = g.stamp
	}
	for _, v := range vs {
		for i := g.start[v]; i < g.start[v+1]; i++ {
			if u, e := g.adj[i], g.eid[i]; u > v && g.alive[e] && g.mark[u] == g.stamp {
				g.alive[e] = false
				g.deg[v]--
				g.deg[u]--
				g.edges--
			}
		}
	}
}

// Component is a connected component: a sorted set of vertex IDs.
type Component struct {
	Vertices []record.ID
}

// Size returns the number of vertices in the component.
func (c *Component) Size() int { return len(c.Vertices) }

// ConnectedComponents returns the connected components of the graph as
// built, each with vertices sorted ascending, and components sorted by
// their smallest vertex.
func (g *Graph) ConnectedComponents() []Component {
	comps := g.Components()
	out := make([]Component, len(comps))
	flat := make([]record.ID, 0, len(g.ids))
	for c, vs := range comps {
		for _, v := range vs {
			flat = append(flat, g.ids[v])
		}
		out[c].Vertices = flat[len(flat)-len(vs) : len(flat) : len(flat)]
	}
	return out
}

// Components is ConnectedComponents over vertex indices, from one
// union-find pass over the edges as built (live or peeled). A vertex with
// no edge, the endpoint of a self-loop alone, is in no component.
func (g *Graph) Components() [][]int32 {
	n := int32(len(g.ids))
	parent := make([]int32, n)
	for v := range parent {
		parent[v] = int32(v)
	}
	find := func(v int32) int32 {
		for parent[v] != v {
			parent[v] = parent[parent[v]]
			v = parent[v]
		}
		return v
	}
	for v := int32(0); v < n; v++ {
		for _, u := range g.adj[g.start[v]:g.start[v+1]] {
			if u < v {
				continue
			}
			if ru, rv := find(u), find(v); ru != rv {
				parent[max(ru, rv)] = min(ru, rv)
			}
		}
	}
	// Every root is its component's smallest vertex, so scanning v
	// ascending numbers components by smallest vertex and lists each
	// one's vertices ascending.
	label := make([]int32, n)
	var sizes []int32
	for v := int32(0); v < n; v++ {
		if g.start[v] == g.start[v+1] {
			continue
		}
		if r := find(v); r == v {
			label[v] = int32(len(sizes))
			sizes = append(sizes, 1)
		} else {
			label[v] = label[r]
			sizes[label[v]]++
		}
	}
	comps := make([][]int32, len(sizes))
	flat := make([]int32, 0, n)
	for c, s := range sizes {
		comps[c] = flat[len(flat) : len(flat) : len(flat)+int(s)]
		flat = flat[:len(flat)+int(s)]
	}
	for v := int32(0); v < n; v++ {
		if g.start[v] != g.start[v+1] {
			c := label[v]
			comps[c] = append(comps[c], v)
		}
	}
	return comps
}

// live advances the cursor past dead vertices and returns it.
func (g *Graph) live() int32 {
	for int(g.first) < len(g.ids) && g.deg[g.first] == 0 {
		g.first++
	}
	return g.first
}

// BFSPrefix returns the first max vertices of a breadth-first traversal
// of the live graph: each traversal starts from the smallest unvisited
// live vertex and takes neighbours ascending. It is the building block of
// the BFS-based HIT generator, which only ever needs k vertices per HIT.
func (g *Graph) BFSPrefix(max int) []int32 {
	g.stamp++
	var q []int32
	head := 0
	for s := g.live(); int(s) < len(g.ids) && head < max; s++ {
		if g.deg[s] == 0 || g.mark[s] == g.stamp {
			continue
		}
		g.mark[s] = g.stamp
		q = append(q, s)
		for head < len(q) && head < max {
			v := q[head]
			head++
			for i := g.start[v]; i < g.start[v+1]; i++ {
				if u := g.adj[i]; g.alive[g.eid[i]] && g.mark[u] != g.stamp {
					g.mark[u] = g.stamp
					q = append(q, u)
				}
			}
		}
	}
	return q[:head]
}

// DFSPrefix returns the first max vertices of a depth-first preorder of
// the live graph, started and ordered as in BFSPrefix.
func (g *Graph) DFSPrefix(max int) []int32 {
	g.stamp++
	var order, stack []int32
	for s := g.live(); int(s) < len(g.ids) && len(order) < max; s++ {
		if g.deg[s] == 0 || g.mark[s] == g.stamp {
			continue
		}
		stack = append(stack[:0], s)
		for len(stack) > 0 && len(order) < max {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if g.mark[v] == g.stamp {
				continue
			}
			g.mark[v] = g.stamp
			order = append(order, v)
			// Push in reverse so the smallest neighbour is visited first.
			for i := g.start[v+1] - 1; i >= g.start[v]; i-- {
				if u := g.adj[i]; g.alive[g.eid[i]] && g.mark[u] != g.stamp {
					stack = append(stack, u)
				}
			}
		}
	}
	return order
}
