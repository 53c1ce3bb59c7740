package hitgen

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/crowder/crowder/internal/packing"
	"github.com/crowder/crowder/internal/record"
)

// This file keeps the map-based pair graph and the generators that ran
// on it as a test-only oracle: the CSR generators must reproduce their
// HITs exactly. The oracle favours the plainest form of each algorithm —
// adjacency maps, neighbours sorted on every call, a full scan for each
// seed — over speed.

// refGraph is an undirected simple graph over record IDs; a vertex exists
// while it has an edge.
type refGraph struct {
	adj   map[record.ID]map[record.ID]struct{}
	edges int
}

func refFromPairs(pairs []record.Pair) *refGraph {
	g := &refGraph{adj: make(map[record.ID]map[record.ID]struct{})}
	for _, p := range pairs {
		g.addEdge(p.A, p.B)
	}
	return g
}

func (g *refGraph) addEdge(a, b record.ID) {
	if a == b || g.hasEdge(a, b) {
		return
	}
	for _, h := range [2][2]record.ID{{a, b}, {b, a}} {
		if g.adj[h[0]] == nil {
			g.adj[h[0]] = make(map[record.ID]struct{})
		}
		g.adj[h[0]][h[1]] = struct{}{}
	}
	g.edges++
}

func (g *refGraph) hasEdge(a, b record.ID) bool {
	_, ok := g.adj[a][b]
	return ok
}

func (g *refGraph) removeEdge(a, b record.ID) {
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

func (g *refGraph) degree(v record.ID) int { return len(g.adj[v]) }

func (g *refGraph) vertices() []record.ID {
	out := make([]record.ID, 0, len(g.adj))
	for v := range g.adj {
		out = append(out, v)
	}
	return refSort(out)
}

func (g *refGraph) neighbors(v record.ID) []record.ID {
	out := make([]record.ID, 0, len(g.adj[v]))
	for u := range g.adj[v] {
		out = append(out, u)
	}
	return refSort(out)
}

// peel removes the edges with both endpoints in vs.
func (g *refGraph) peel(vs []record.ID) {
	in := make(map[record.ID]bool, len(vs))
	for _, v := range vs {
		in[v] = true
	}
	var covered []record.Pair
	for _, v := range vs {
		for u := range g.adj[v] {
			if v < u && in[u] {
				covered = append(covered, record.Pair{A: v, B: u})
			}
		}
	}
	for _, e := range covered {
		g.removeEdge(e.A, e.B)
	}
}

// components returns the connected components, vertices ascending,
// ordered by smallest vertex.
func (g *refGraph) components() [][]record.ID {
	seen := make(map[record.ID]bool, len(g.adj))
	var comps [][]record.ID
	for _, start := range g.vertices() {
		if seen[start] {
			continue
		}
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
		comps = append(comps, refSort(comp))
	}
	return comps
}

// subgraph returns the subgraph induced by vs.
func (g *refGraph) subgraph(vs []record.ID) *refGraph {
	in := make(map[record.ID]bool, len(vs))
	for _, v := range vs {
		in[v] = true
	}
	sub := refFromPairs(nil)
	for v := range g.adj {
		for u := range g.adj[v] {
			if in[v] && in[u] {
				sub.addEdge(v, u)
			}
		}
	}
	return sub
}

// bfsPrefix returns the first max vertices in breadth-first order, each
// traversal starting from the smallest unvisited vertex.
func (g *refGraph) bfsPrefix(max int) []record.ID {
	seen := make(map[record.ID]bool)
	var order []record.ID
	for _, start := range g.vertices() {
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
			for _, u := range g.neighbors(v) {
				if !seen[u] {
					seen[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	return order
}

// dfsPrefix returns the first max vertices in depth-first preorder.
func (g *refGraph) dfsPrefix(max int) []record.ID {
	seen := make(map[record.ID]bool)
	var order []record.ID
	for _, start := range g.vertices() {
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
			nbrs := g.neighbors(v)
			for i := len(nbrs) - 1; i >= 0; i-- {
				if !seen[nbrs[i]] {
					stack = append(stack, nbrs[i])
				}
			}
		}
	}
	return order
}

// refSeed is the seed rule by full scan: the maximum degree, ties to the
// smallest ID, or the smallest ID alone under SeedMinID.
func refSeed(g *refGraph, byID bool) (record.ID, bool) {
	var best record.ID
	bestDeg := -1
	for _, v := range g.vertices() {
		if byID {
			return v, true
		}
		if d := g.degree(v); d > bestDeg {
			best, bestDeg = v, d
		}
	}
	return best, bestDeg >= 0
}

// refPickNext is Algorithm 2, line 8: the maximum indegree, then the
// minimum outdegree, then the smallest ID.
func (t TwoTiered) refPickNext(g *refGraph, conn map[record.ID]int) record.ID {
	var best record.ID
	bestIn, bestOut := -1, -1
	first := true
	for r, in := range conn {
		out := g.degree(r) - in
		better := false
		switch {
		case first, in > bestIn:
			better = true
		case in < bestIn:
		case !t.DisableTieBreak && out < bestOut:
			better = true
		case !t.DisableTieBreak && out > bestOut:
		default:
			better = r < best
		}
		if better {
			best, bestIn, bestOut, first = r, in, out, false
		}
	}
	return best
}

// refPartition is Algorithm 2 on one large component.
func (t TwoTiered) refPartition(lcc *refGraph, k int) [][]record.ID {
	var sccs [][]record.ID
	for {
		seed, ok := refSeed(lcc, t.Seed == SeedMinID)
		if !ok {
			return sccs
		}
		scc := map[record.ID]bool{seed: true}
		conn := make(map[record.ID]int)
		for _, u := range lcc.neighbors(seed) {
			conn[u] = 1
		}
		for len(scc) < k && len(conn) > 0 {
			rnew := t.refPickNext(lcc, conn)
			delete(conn, rnew)
			scc[rnew] = true
			for _, u := range lcc.neighbors(rnew) {
				if !scc[u] {
					conn[u]++
				}
			}
		}
		members := make([]record.ID, 0, len(scc))
		for r := range scc {
			members = append(members, r)
		}
		sccs = append(sccs, refSort(members))
		lcc.peel(members)
	}
}

// refPack is the bottom tier: size-level bins from the packer, then
// concrete components assigned to the slots, the last of each size
// first.
func (t TwoTiered) refPack(sccs [][]record.ID, k int) ([]ClusterHIT, error) {
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
		return nil, err
	}
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
				return nil, fmt.Errorf("no component of size %d left", sz)
			}
			for _, r := range pool[len(pool)-1] {
				members[r] = true
			}
			bySize[sz] = pool[:len(pool)-1]
		}
		var hit ClusterHIT
		for r := range members {
			hit.Records = append(hit.Records, r)
		}
		hits = append(hits, ClusterHIT{Records: refSort(hit.Records)})
	}
	return hits, nil
}

// refTwoTiered is Algorithm 1 on the map graph.
func refTwoTiered(t TwoTiered, pairs []record.Pair, k int) ([]ClusterHIT, error) {
	g := refFromPairs(pairs)
	var sccs, parts [][]record.ID
	for _, cc := range g.components() {
		if len(cc) <= k {
			sccs = append(sccs, cc)
		} else {
			parts = append(parts, t.refPartition(g.subgraph(cc), k)...)
		}
	}
	return t.refPack(append(sccs, parts...), k)
}

// refTraversal fills each HIT with a BFS or DFS prefix of the remaining
// graph and peels what it covers.
func refTraversal(pairs []record.Pair, k int, bfs bool) []ClusterHIT {
	g := refFromPairs(pairs)
	var hits []ClusterHIT
	for g.edges > 0 {
		var members []record.ID
		if bfs {
			members = g.bfsPrefix(k)
		} else {
			members = g.dfsPrefix(k)
		}
		hits = append(hits, ClusterHIT{Records: refSort(members)})
		g.peel(members)
	}
	return hits
}

// refApprox builds SEQ vertex by vertex in ID order, each vertex followed
// by its remaining edges, and cuts it into windows of k−1 elements.
func refApprox(pairs []record.Pair, k int) []ClusterHIT {
	g := refFromPairs(pairs)
	var seq [][]record.ID
	for _, v := range g.vertices() {
		seq = append(seq, []record.ID{v})
		for _, u := range g.neighbors(v) {
			seq = append(seq, []record.ID{v, u})
			g.removeEdge(v, u)
		}
	}
	var hits []ClusterHIT
	for start := 0; start < len(seq); start += k - 1 {
		members := make(map[record.ID]bool)
		for _, el := range seq[start:min(start+k-1, len(seq))] {
			for _, r := range el {
				members[r] = true
			}
		}
		var hit ClusterHIT
		for r := range members {
			hit.Records = append(hit.Records, r)
		}
		hits = append(hits, ClusterHIT{Records: refSort(hit.Records)})
	}
	return hits
}

// refRandom merges pairs drawn from a lazily generated random permutation
// of the remaining pairs until the HIT is full, then drops the pairs the
// HIT covers.
func refRandom(seed int64, pairs []record.Pair, k int) []ClusterHIT {
	rng := rand.New(rand.NewSource(seed))
	remaining := append([]record.Pair(nil), pairs...)
	var hits []ClusterHIT
	for len(remaining) > 0 {
		members := make(map[record.ID]bool)
		var hit []record.ID
		for i := 0; i < len(remaining) && len(hit) < k; i++ {
			j := i + rng.Intn(len(remaining)-i)
			remaining[i], remaining[j] = remaining[j], remaining[i]
			p := remaining[i]
			add := 0
			for _, r := range [2]record.ID{p.A, p.B} {
				if !members[r] {
					add++
				}
			}
			if len(hit)+add > k {
				continue
			}
			for _, r := range [2]record.ID{p.A, p.B} {
				if !members[r] {
					members[r] = true
					hit = append(hit, r)
				}
			}
		}
		hits = append(hits, ClusterHIT{Records: refSort(hit)})
		next := remaining[:0]
		for _, p := range remaining {
			if !members[p.A] || !members[p.B] {
				next = append(next, p)
			}
		}
		remaining = next
	}
	return hits
}

// refGenerate runs the oracle for gen.
func refGenerate(gen ClusterGenerator, pairs []record.Pair, k int) ([]ClusterHIT, error) {
	switch g := gen.(type) {
	case TwoTiered:
		return refTwoTiered(g, pairs, k)
	case BFS:
		return refTraversal(pairs, k, true), nil
	case DFS:
		return refTraversal(pairs, k, false), nil
	case Approx:
		return refApprox(pairs, k), nil
	case Random:
		return refRandom(g.Seed, pairs, k), nil
	}
	return nil, fmt.Errorf("no reference for %s", gen.Name())
}

// refSort orders records ascending, apart from the code under test.
func refSort(rs []record.ID) []record.ID {
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	return rs
}

// sameHITs reports whether two HIT lists hold the same records in the
// same order.
func sameHITs(a, b []ClusterHIT) bool {
	return slices.EqualFunc(a, b, func(x, y ClusterHIT) bool { return slices.Equal(x.Records, y.Records) })
}

// checkMatchesReference runs every generator and its oracle on pairs and
// requires the same HITs, HIT for HIT.
func checkMatchesReference(t *testing.T, label string, pairs []record.Pair, k int) {
	t.Helper()
	for _, gen := range allGenerators() {
		got, err := gen.Generate(pairs, k)
		if err != nil {
			t.Fatalf("%s: %s k=%d: %v", label, gen.Name(), k, err)
		}
		want, err := refGenerate(gen, pairs, k)
		if err != nil {
			t.Fatalf("%s: %s k=%d: oracle: %v", label, gen.Name(), k, err)
		}
		if !sameHITs(got, want) {
			t.Fatalf("%s: %s k=%d on %v:\n got %v\nwant %v", label, gen.Name(), k, pairs, got, want)
		}
	}
}

// diffPairs draws a pair list over sparse, unordered record IDs, with
// pairs in either orientation and some repeated: from a few isolated
// pairs to one dense component, so both tiers and every traversal branch
// run.
func diffPairs(rng *rand.Rand) []record.Pair {
	n := 2 + rng.Intn(50)
	ids := make([]record.ID, n)
	for i := range ids {
		ids[i] = record.ID(rng.Int63n(1<<40) - 1<<20)
	}
	var pairs []record.Pair
	for m := rng.Intn(n * (1 + rng.Intn(6))); len(pairs) < m; {
		if len(pairs) > 0 && rng.Intn(8) == 0 {
			p := pairs[rng.Intn(len(pairs))]
			if rng.Intn(2) == 0 {
				p.A, p.B = p.B, p.A
			}
			pairs = append(pairs, p)
			continue
		}
		if a, b := ids[rng.Intn(n)], ids[rng.Intn(n)]; a != b {
			pairs = append(pairs, record.Pair{A: a, B: b})
		}
	}
	return pairs
}

// Every CSR generator reproduces the map-based oracle HIT for HIT on
// random graphs with sparse IDs, repeated and non-canonical pairs, for k
// from 2 to 12.
func TestGeneratorsMatchReference(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		checkMatchesReference(t, fmt.Sprintf("seed %d", seed), diffPairs(rng), 2+int(seed%11))
	}
	// The tie-heavy graphs of the seed-heap test, at every k.
	for seed := int64(0); seed < 40; seed++ {
		pairs := tiedPairs(rand.New(rand.NewSource(seed)))
		for k := 2; k <= 12; k++ {
			checkMatchesReference(t, fmt.Sprintf("tied seed %d", seed), pairs, k)
		}
	}
}

// FuzzGeneratorsMatchReference decodes a pair list and checks every
// generator against the oracle. Byte 0 is k (2 to 12); each later byte
// pair is one pair over 24 records whose IDs are spread over a wide,
// sparse range. A self-loop must make every generator fail, naming it;
// the oracle then runs on the list without its self-loops. The seed
// corpus is under testdata/fuzz/FuzzGeneratorsMatchReference.
func FuzzGeneratorsMatchReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := 2 + int(data[0]%11)
		id := func(b byte) record.ID { return record.ID(b%24)*104_729 - 1_000_000 }
		var pairs, loops []record.Pair
		for i := 1; i+1 < len(data) && len(pairs) < 96; i += 2 {
			p := record.Pair{A: id(data[i]), B: id(data[i+1])}
			if p.A == p.B {
				loops = append(loops, p)
			} else {
				pairs = append(pairs, p)
			}
		}
		if len(loops) > 0 {
			withLoop := append(slices.Clone(pairs), loops[0])
			for _, gen := range allGenerators() {
				if _, err := gen.Generate(withLoop, k); err == nil || !strings.Contains(err.Error(), loops[0].String()) {
					t.Fatalf("%s on self-loop %v: err = %v", gen.Name(), loops[0], err)
				}
			}
		}
		checkMatchesReference(t, fmt.Sprintf("%v", data), pairs, k)
	})
}
