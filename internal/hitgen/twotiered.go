package hitgen

import (
	"container/heap"
	"fmt"
	"slices"

	"github.com/crowder/crowder/internal/graph"
	"github.com/crowder/crowder/internal/packing"
	"github.com/crowder/crowder/internal/record"
)

// PackStrategy selects the bottom-tier packing algorithm.
type PackStrategy int

const (
	// PackExact uses the cutting-stock formulation solved with column
	// generation and branch-and-bound (Section 5.3, the paper's method).
	PackExact PackStrategy = iota
	// PackFFD uses First-Fit-Decreasing, the classic heuristic; provided
	// as an ablation of the exact packer.
	PackFFD
)

// SeedStrategy selects how the top tier seeds each small connected
// component (ablation of Algorithm 2's max-degree choice).
type SeedStrategy int

const (
	// SeedMaxDegree starts each SCC from the vertex with the maximum
	// degree (Algorithm 2, line 4 — the paper's choice).
	SeedMaxDegree SeedStrategy = iota
	// SeedMinID starts from the smallest-ID vertex, ignoring connectivity;
	// used to measure how much the max-degree seed matters.
	SeedMinID
)

// TwoTiered is the paper's cluster-based HIT generation algorithm
// (Section 5): the top tier partitions large connected components into
// highly connected small ones (Algorithm 2), and the bottom tier packs all
// small components into HITs by solving a cutting-stock problem.
type TwoTiered struct {
	// Pack selects the bottom-tier packer (default PackExact).
	Pack PackStrategy
	// Seed selects the top-tier seeding rule (default SeedMaxDegree).
	Seed SeedStrategy
	// DisableTieBreak drops Algorithm 2's min-outdegree tie-breaking rule
	// (vertices tied on indegree are then taken in ID order); used as an
	// ablation.
	DisableTieBreak bool
}

// Name implements ClusterGenerator.
func (t TwoTiered) Name() string {
	switch {
	case t.Pack == PackFFD:
		return "Two-tiered(FFD)"
	case t.Seed == SeedMinID:
		return "Two-tiered(minID)"
	case t.DisableTieBreak:
		return "Two-tiered(noTie)"
	default:
		return "Two-tiered"
	}
}

// Generate implements ClusterGenerator (Algorithm 1).
func (t TwoTiered) Generate(pairs []record.Pair, k int) ([]ClusterHIT, error) {
	if err := checkInput(pairs, k); err != nil {
		return nil, err
	}
	g := graph.FromPairs(pairs)

	// Lines 2–4: split connected components by size.
	var sccs [][]record.ID
	var lccs [][]int32
	for _, cc := range g.Components() {
		if len(cc) <= k {
			sccs = append(sccs, recordsOf(g.IDs(), cc))
		} else {
			lccs = append(lccs, cc)
		}
	}

	// Line 5 (top tier): partition each LCC into SCCs, peeling it in
	// place on the shared graph.
	p := newPartitioner(t, g, k)
	for _, lcc := range lccs {
		sccs = p.partition(lcc, sccs)
	}

	// Line 6 (bottom tier): pack the SCCs into HITs.
	return t.pack(sccs, k)
}

// partitioner holds Algorithm 2's per-vertex state. The growing scc and
// its candidate set conn (line 6) are marked with the round's stamp: a
// marked vertex with pos ≥ 0 is conn[pos] with indegree in w.r.t. scc,
// and a marked vertex with pos −1 is in scc. The outdegree is recovered
// as Degree − in.
type partitioner struct {
	TwoTiered
	g             *graph.Graph
	k             int
	mark, pos, in []int32
	stamp         int32
	conn, scc     []int32
}

func newPartitioner(t TwoTiered, g *graph.Graph, k int) *partitioner {
	n := len(g.IDs())
	return &partitioner{TwoTiered: t, g: g, k: k, mark: make([]int32, n), pos: make([]int32, n), in: make([]int32, n)}
}

// partition implements Algorithm 2 for a single large connected component:
// repeatedly grow a small component of maximal connectivity and peel off
// its covered edges until no edges remain, appending each one to sccs.
// The indegree of each candidate is maintained incrementally, so
// selecting each vertex costs one scan of the candidate set, and seeds
// come from a lazy heap rather than a scan of the whole component per
// SCC.
func (p *partitioner) partition(lcc []int32, sccs [][]record.ID) [][]record.ID {
	seeds := newSeedHeap(p.g, lcc, p.Seed == SeedMinID)
	for {
		seed, ok := seeds.pop(p.g)
		if !ok {
			return sccs
		}
		p.stamp++
		p.conn, p.scc = p.conn[:0], p.scc[:0]
		p.join(seed)
		for len(p.scc) < p.k && len(p.conn) > 0 {
			p.join(p.conn[p.pickNext()])
		}
		slices.Sort(p.scc)
		sccs = append(sccs, recordsOf(p.g.IDs(), p.scc))
		// Line 14: remove the edges covered by scc. Peeling changed the
		// degree of every member and of nothing else.
		p.g.Peel(p.scc)
		for _, r := range p.scc {
			if d := p.g.Degree(r); d > 0 {
				heap.Push(seeds, seedEntry{r, int32(d)})
			}
		}
	}
}

// join moves v from conn (or, for the seed, from nowhere) into scc and
// adds one indegree to each live neighbour outside scc.
func (p *partitioner) join(v int32) {
	if p.mark[v] == p.stamp {
		last := p.conn[len(p.conn)-1]
		p.conn[p.pos[v]], p.pos[last] = last, p.pos[v]
		p.conn = p.conn[:len(p.conn)-1]
	}
	p.mark[v], p.pos[v] = p.stamp, -1
	p.scc = append(p.scc, v)
	nbrs, edges := p.g.Row(v)
	for i, u := range nbrs {
		switch {
		case !p.g.Alive(edges[i]):
		case p.mark[u] != p.stamp:
			p.mark[u], p.pos[u], p.in[u] = p.stamp, int32(len(p.conn)), 1
			p.conn = append(p.conn, u)
		case p.pos[u] >= 0:
			p.in[u]++
		}
	}
}

// seedHeap yields the starting vertex of each new SCC: the maximum degree
// first, ties to the smallest ID (Algorithm 2, line 4), or the smallest
// ID alone under SeedMinID. It is lazy: an entry keeps the degree it was
// pushed with, degrees only fall as edges are peeled, and the partition
// re-pushes each vertex whose degree changed, so every vertex with edges
// has exactly one entry matching its degree and any other entry is stale.
// Vertex indices ascend with record IDs, so the order is a total order on
// live entries and the seeds do not depend on the heap's layout.
type seedHeap struct {
	e    []seedEntry
	byID bool
}

type seedEntry struct {
	v, deg int32
}

func newSeedHeap(g *graph.Graph, vs []int32, byID bool) *seedHeap {
	h := &seedHeap{e: make([]seedEntry, len(vs)), byID: byID}
	for i, v := range vs {
		h.e[i] = seedEntry{v, int32(g.Degree(v))}
	}
	heap.Init(h)
	return h
}

func (h *seedHeap) Len() int      { return len(h.e) }
func (h *seedHeap) Swap(i, j int) { h.e[i], h.e[j] = h.e[j], h.e[i] }
func (h *seedHeap) Push(x any)    { h.e = append(h.e, x.(seedEntry)) }
func (h *seedHeap) Pop() any      { x := h.e[len(h.e)-1]; h.e = h.e[:len(h.e)-1]; return x }
func (h *seedHeap) Less(i, j int) bool {
	a, b := h.e[i], h.e[j]
	if !h.byID && a.deg != b.deg {
		return a.deg > b.deg
	}
	return a.v < b.v
}

// pop removes and returns the next seed, dropping stale entries; ok is
// false once the heap's vertices have no edges left.
func (h *seedHeap) pop(g *graph.Graph) (v int32, ok bool) {
	for h.Len() > 0 {
		if e := heap.Pop(h).(seedEntry); int(e.deg) == g.Degree(e.v) {
			return e.v, true
		}
	}
	return 0, false
}

// pickNext returns the position in conn of the vertex with the maximum
// indegree w.r.t. scc, breaking ties by minimum outdegree (Algorithm 2,
// line 8). Remaining ties break by smallest ID for determinism.
func (p *partitioner) pickNext() int {
	best := -1
	var bestIn, bestOut int32
	for j, r := range p.conn {
		in := p.in[r]
		out := int32(p.g.Degree(r)) - in
		var better bool
		switch {
		case best < 0:
			better = true
		case in != bestIn:
			better = in > bestIn
		case !p.DisableTieBreak && out != bestOut:
			better = out < bestOut
		default:
			better = r < p.conn[best] // full tie: smallest ID
		}
		if better {
			best, bestIn, bestOut = j, in, out
		}
	}
	return best
}

// pack implements the bottom tier: pack the small components into HITs of
// capacity k, minimizing the HIT count. Components are grouped by size;
// the size-level packing comes from the cutting-stock solver (or FFD), and
// concrete components are then assigned to the size slots.
func (t TwoTiered) pack(sccs [][]record.ID, k int) ([]ClusterHIT, error) {
	if len(sccs) == 0 {
		return nil, nil
	}
	sizes := make([]int, len(sccs))
	for i, s := range sccs {
		sizes[i] = len(s)
	}

	var bins [][]int
	var err error
	if t.Pack == PackFFD {
		bins, err = packing.FirstFitDecreasing(sizes, k)
	} else {
		var res packing.Result
		res, err = packing.Solve(sizes, k)
		bins = res.Bins
	}
	if err != nil {
		return nil, fmt.Errorf("hitgen: bottom-tier packing: %w", err)
	}

	// Assign concrete components to the size slots of each bin.
	bySize := make(map[int][][]record.ID)
	for _, s := range sccs {
		bySize[len(s)] = append(bySize[len(s)], s)
	}
	// SCCs peeled from one LCC may share vertices, so a HIT keeps each
	// record once.
	var hits []ClusterHIT
	for _, bin := range bins {
		var members []record.ID
		for _, sz := range bin {
			pool := bySize[sz]
			if len(pool) == 0 {
				return nil, fmt.Errorf("hitgen: packing produced a slot of size %d with no component left", sz)
			}
			members = append(members, pool[len(pool)-1]...)
			bySize[sz] = pool[:len(pool)-1]
		}
		slices.Sort(members)
		hits = append(hits, ClusterHIT{Records: slices.Clip(slices.Compact(members))})
	}
	for sz, pool := range bySize {
		if len(pool) > 0 {
			return nil, fmt.Errorf("hitgen: %d components of size %d left unpacked", len(pool), sz)
		}
	}
	return hits, nil
}
