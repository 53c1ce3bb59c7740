package hitgen

import (
	"container/heap"
	"fmt"

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
	if err := checkK(k); err != nil {
		return nil, err
	}
	g := buildGraph(pairs)

	// Lines 2–4: split connected components by size.
	var sccs [][]record.ID
	var lccs []graph.Component
	for _, cc := range g.ConnectedComponents() {
		if cc.Size() <= k {
			sccs = append(sccs, cc.Vertices)
		} else {
			lccs = append(lccs, cc)
		}
	}

	// Line 5 (top tier): partition each LCC into SCCs.
	for _, lcc := range lccs {
		parts := t.partition(g.Subgraph(lcc.Vertices), k)
		sccs = append(sccs, parts...)
	}

	// Line 6 (bottom tier): pack the SCCs into HITs.
	return t.pack(sccs, k)
}

// partition implements Algorithm 2 for a single large connected component:
// repeatedly grow a small component of maximal connectivity and peel off
// its covered edges until no edges remain. The indegree of each candidate
// (edges into the growing scc) is maintained incrementally, so selecting
// each vertex costs one scan of the candidate set rather than a full
// degree recomputation, and seeds come from a lazy heap rather than a
// scan of the whole component per SCC.
func (t TwoTiered) partition(lcc *graph.Graph, k int) [][]record.ID {
	seeds := newSeedHeap(lcc, t.Seed == SeedMinID)
	var sccs [][]record.ID
	for {
		seed, ok := seeds.pop(lcc)
		if !ok {
			break
		}
		scc := map[record.ID]bool{seed: true}
		// conn maps each vertex adjacent to the growing scc (Algorithm 2,
		// line 6) to its indegree w.r.t. scc; the outdegree is recovered as
		// Degree − indegree.
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
		// Line 14: remove the edges covered by scc.
		for _, e := range lcc.EdgesCoveredBy(members) {
			lcc.RemoveEdge(e.A, e.B)
		}
		// Peeling changed the degree of every member and of nothing else.
		for _, r := range members {
			if d := lcc.Degree(r); d > 0 {
				heap.Push(seeds, seedEntry{r, d})
			}
		}
	}
	return sccs
}

// seedHeap yields the starting vertex of each new SCC: the maximum degree
// first, ties to the smallest ID (Algorithm 2, line 4), or the smallest
// ID alone under SeedMinID. It is lazy: an entry keeps the degree it was
// pushed with, degrees only fall as edges are peeled, and the partition
// re-pushes each vertex whose degree changed, so every vertex with edges
// has exactly one entry matching its degree and any other entry is stale.
type seedHeap struct {
	e    []seedEntry
	byID bool
}

type seedEntry struct {
	v   record.ID
	deg int
}

func newSeedHeap(g *graph.Graph, byID bool) *seedHeap {
	h := &seedHeap{byID: byID}
	for _, v := range g.Vertices() {
		h.e = append(h.e, seedEntry{v, g.Degree(v)})
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
// false once g has no edges left.
func (h *seedHeap) pop(g *graph.Graph) (v record.ID, ok bool) {
	for h.Len() > 0 {
		if e := heap.Pop(h).(seedEntry); e.deg == g.Degree(e.v) {
			return e.v, true
		}
	}
	return 0, false
}

// pickNext selects the vertex from conn with the maximum indegree w.r.t.
// scc, breaking ties by minimum outdegree (Algorithm 2, line 8). Remaining
// ties break by smallest ID for determinism.
func (t TwoTiered) pickNext(lcc *graph.Graph, conn map[record.ID]int) record.ID {
	var best record.ID
	bestIn, bestOut := -1, -1
	first := true
	for r, in := range conn {
		out := lcc.Degree(r) - in
		better := false
		switch {
		case first:
			better = true
		case in > bestIn:
			better = true
		case in < bestIn:
		case !t.DisableTieBreak && out < bestOut:
			better = true
		case !t.DisableTieBreak && out > bestOut:
		default:
			better = r < best // full tie: smallest ID
		}
		if better {
			best, bestIn, bestOut, first = r, in, out, false
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
	var hits []ClusterHIT
	for _, bin := range bins {
		members := make(map[record.ID]bool)
		for _, sz := range bin {
			pool := bySize[sz]
			if len(pool) == 0 {
				return nil, fmt.Errorf("hitgen: packing produced a slot of size %d with no component left", sz)
			}
			comp := pool[len(pool)-1]
			bySize[sz] = pool[:len(pool)-1]
			for _, r := range comp {
				members[r] = true
			}
		}
		hit := ClusterHIT{}
		for r := range members {
			hit.Records = append(hit.Records, r)
		}
		sortHIT(hit.Records)
		hits = append(hits, hit)
	}
	for sz, pool := range bySize {
		if len(pool) > 0 {
			return nil, fmt.Errorf("hitgen: %d components of size %d left unpacked", len(pool), sz)
		}
	}
	return hits, nil
}
