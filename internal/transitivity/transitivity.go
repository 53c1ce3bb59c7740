// Package transitivity implements the deduction graph that lets the
// hybrid workflow skip crowdsourcing pairs whose verdict is already
// implied by earlier crowd answers. Entity resolution is an equivalence
// relation: once the crowd accepts A=B and B=C, A=C follows by
// transitivity, and once it additionally rejects B=D, A≠D follows by
// negative inference (a record cannot be in two entities at once). The
// paper's cluster-based HITs exploit this *within* one task — the
// colour-labelling interface transitively closes each worker's answers —
// and this package extends the same relation *across* tasks, so an
// adaptive scheduler can deduce verdicts instead of paying for them.
//
// The graph maintains
//
//   - the positive closure as a union-find over record IDs, with a
//     spanning forest of the accepted asked pairs kept alongside as the
//     proof structure: the forest path between two records is the chain
//     of crowd verdicts that implies their match;
//   - negative edges between clusters, each carrying the asked non-match
//     pair that witnessed the separation.
//
// Crowd answers are noisy, so the observed relation is not always a
// consistent equivalence. Conflicts resolve deterministically in favour
// of the positive evidence: an accepted match merges its two clusters
// even if a negative edge separated them (the edge is dropped), and a
// rejected match inside an already-connected cluster adds nothing. Asked
// pairs always keep their own crowd verdict — deduction only ever speaks
// for pairs nobody asked.
//
// A Graph is not safe for concurrent use; the owning scheduler
// serializes access. All iteration orders are canonical, so a graph's
// state is a pure function of the observation sequence.
package transitivity

import (
	"github.com/crowder/crowder/internal/record"
)

// Deduction is one deduced verdict with its provenance: the asked pairs
// whose verdicts imply it.
type Deduction struct {
	// Pair is the deduced pair.
	Pair record.Pair
	// Match is the deduced verdict.
	Match bool
	// Path lists the accepted asked pairs forming the proof chain. For a
	// positive deduction it connects Pair.A to Pair.B; for a negative one
	// it connects Pair.A and Pair.B to the two sides of Witness.
	Path []record.Pair
	// Witness is the asked non-match pair separating the two clusters
	// (negative deductions only; zero otherwise).
	Witness record.Pair
	// Negative reports whether Witness is meaningful.
	Negative bool
}

// forestEdge is one accepted asked pair seen from one endpoint, linked
// to the next edge at that endpoint. Weak edges (non-unanimous crowd
// majorities) merge clusters but cannot carry proofs: deductions built
// on contested links would compound the noise they rest on.
type forestEdge struct {
	to     record.ID
	via    record.Pair
	strong bool
	next   int32
}

// negEdge is one negative edge seen from one cluster root, linked to the
// next edge at that root: the root on its far side (-1 once the edge is
// dropped) and the asked non-match pair witnessing the separation.
type negEdge struct {
	to      record.ID
	witness record.Pair
	next    int32
}

// hop is one step of a proof search: the node reached, the index of the
// hop it was reached from (-1 at the start), and the edge's asked pair.
type hop struct {
	node record.ID
	prev int
	via  record.Pair
}

// Graph is the deduction graph over crowd verdicts. Its state lives in
// slices indexed by record ID, sized to the largest ID observed, and in
// two edge arrays whose per-record lists those slices head: record IDs
// are dense, so a lookup is an index instead of a hash, and Reset
// empties the graph for a refill while keeping every slice's capacity.
type Graph struct {
	parent []record.ID
	rank   []uint8
	// The edges at v of the spanning forest of accepted asked pairs start
	// at forest[forestAt[v]-1] (0 heads an empty list). The forest is
	// acyclic by construction (an edge is added only when it merges two
	// clusters), spans every cluster and provides proof paths.
	forestAt []int32
	forest   []forestEdge
	// The negative edges at cluster root r start at neg[negAt[r]-1]: each
	// far root with the asked non-match pair that witnessed the two
	// clusters being distinct entities (symmetric). Only strong
	// (unanimous) rejections become witnesses: a contested non-match is
	// too thin a base for inferring other pairs apart.
	negAt []int32
	neg   []negEdge

	// The proof search's scratch: seen[v] == gen marks v visited by the
	// current search, so a search clears nothing.
	hops []hop
	seen []uint32
	gen  uint32

	// MaxProof, when positive, bounds the number of asked pairs a
	// deduction may rest on (path edges, plus the witness for negative
	// deductions). Crowd answers are noisy and chains compound error —
	// a ten-link chain of 95%-confident matches is only ~60% confident —
	// so schedulers cap the proof length and ask the crowd directly for
	// anything that would need a longer one. 0 means unlimited.
	MaxProof int
}

// New creates an empty deduction graph.
func New() *Graph { return &Graph{} }

// Reset empties the graph, keeping its storage (and MaxProof) for the
// next sequence of observations.
func (g *Graph) Reset() {
	for v := range g.parent {
		g.parent[v], g.rank[v] = record.ID(v), 0
	}
	clear(g.forestAt)
	clear(g.negAt)
	g.forest, g.neg = g.forest[:0], g.neg[:0]
}

// ensure registers every ID up to v as its own singleton cluster.
func (g *Graph) ensure(v record.ID) {
	for n := record.ID(len(g.parent)); n <= v; n++ {
		g.parent, g.rank = append(g.parent, n), append(g.rank, 0)
		g.forestAt, g.negAt = append(g.forestAt, 0), append(g.negAt, 0)
	}
}

// find returns the cluster root of v with path compression. Records
// never observed are their own singleton cluster.
func (g *Graph) find(v record.ID) record.ID {
	if int(v) >= len(g.parent) {
		return v
	}
	root := v
	for g.parent[root] != root {
		root = g.parent[root]
	}
	for v != root {
		v, g.parent[v] = g.parent[v], root
	}
	return root
}

// Root returns the canonical representative of v's positive-closure
// cluster (v itself when unobserved). Schedulers use it to reason about
// clusters without touching union-find internals.
func (g *Graph) Root(v record.ID) record.ID { return g.find(v) }

// Observe absorbs one asked crowd verdict with full evidentiary weight:
// ObserveStrength with strong = true.
func (g *Graph) Observe(p record.Pair, match bool) {
	g.ObserveStrength(p, match, true)
}

// ObserveStrength absorbs one asked crowd verdict. Accepted matches
// merge the endpoints' clusters (dropping any negative edge that
// separated them — positive evidence wins deterministically); rejected
// matches add a negative edge between the clusters unless the endpoints
// are already connected, in which case the rejection conflicts with the
// positive closure and contributes nothing beyond the pair's own
// verdict.
//
// strong marks the verdict as unanimous (or otherwise high-confidence)
// crowd evidence. Weak verdicts still shape the clusters — they are the
// crowd's best answer for their own pair — but never carry proofs: a
// weak match is a forest edge deductions cannot traverse, and a weak
// non-match never becomes a separation witness. Contested links
// therefore stop deduction chains cold instead of silently compounding
// their noise into pairs nobody asked about.
func (g *Graph) ObserveStrength(p record.Pair, match, strong bool) {
	ra, rb := g.find(p.A), g.find(p.B)
	if ra == rb {
		// A rejection conflicts with the positive closure (positive wins);
		// a match is already connected (the forest keeps its proof).
		return
	}
	if !match && !strong {
		return // a contested rejection is too thin to separate clusters
	}
	g.ensure(max(p.A, p.B))
	if !match {
		g.addNegative(ra, rb, p)
		return
	}
	// The accepted pair becomes a forest edge — it merges two trees, so
	// the forest stays acyclic and spanning.
	for _, e := range [2][2]record.ID{{p.A, p.B}, {p.B, p.A}} {
		g.forest = append(g.forest, forestEdge{to: e[1], via: p, strong: strong, next: g.forestAt[e[0]]})
		g.forestAt[e[0]] = int32(len(g.forest))
	}
	g.union(ra, rb)
}

// union merges the clusters rooted at ra and rb (by rank) and re-keys
// their negative edges onto the surviving root. A negative edge between
// the two merging clusters — conflicting evidence — is dropped: the
// accepted match that triggered the union wins.
func (g *Graph) union(ra, rb record.ID) {
	if g.rank[ra] < g.rank[rb] {
		ra, rb = rb, ra
	}
	g.parent[rb] = ra
	if g.rank[ra] == g.rank[rb] {
		g.rank[ra]++
	}
	// Fold rb's negative edges into ra's.
	g.dropNegative(ra, rb)
	for e := g.negAt[rb]; e != 0; e = g.neg[e-1].next {
		if other, witness := g.neg[e-1].to, g.neg[e-1].witness; other >= 0 {
			g.dropNegative(other, rb)
			if other != ra { // else the dropped conflicting edge
				g.addNegative(ra, other, witness)
			}
		}
	}
	g.negAt[rb] = 0
}

// negative returns the position + 1 in g.neg of root ra's edge to root
// rb, or 0 when the two are not separated.
func (g *Graph) negative(ra, rb record.ID) int32 {
	if int(ra) < len(g.negAt) {
		for e := g.negAt[ra]; e != 0; e = g.neg[e-1].next {
			if g.neg[e-1].to == rb {
				return e
			}
		}
	}
	return 0
}

// addNegative records a negative edge between two cluster roots. When
// both merging clusters were distinct from the same third cluster, two
// witnesses compete for one edge; the canonically smaller pair wins so
// the surviving witness is independent of the order edges are folded.
func (g *Graph) addNegative(ra, rb record.ID, witness record.Pair) {
	if e := g.negative(ra, rb); e != 0 {
		if pairLess(witness, g.neg[e-1].witness) {
			g.neg[e-1].witness = witness
			g.neg[g.negative(rb, ra)-1].witness = witness
		}
		return
	}
	for _, e := range [2][2]record.ID{{ra, rb}, {rb, ra}} {
		g.neg = append(g.neg, negEdge{to: e[1], witness: witness, next: g.negAt[e[0]]})
		g.negAt[e[0]] = int32(len(g.neg))
	}
}

// dropNegative drops root from's edge to root to, if it has one.
func (g *Graph) dropNegative(from, to record.ID) {
	if e := g.negative(from, to); e != 0 {
		g.neg[e-1].to = -1
	}
}

func pairLess(a, b record.Pair) bool {
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

// Deduce reports whether the pair's verdict follows from the verdicts
// observed so far, and if so returns it with its proof. A pair deduces
// to a match when its endpoints share a cluster (proof: the forest path
// of asked pairs between them) and to a non-match when a negative edge
// separates its endpoints' clusters (proof: the forest paths from each
// endpoint to its side of the witness pair, plus the witness itself).
func (g *Graph) Deduce(p record.Pair) (Deduction, bool) {
	ra, rb := g.find(p.A), g.find(p.B)
	if ra == rb && p.A != p.B {
		path := g.forestPath(p.A, p.B)
		if path == nil {
			return Deduction{}, false // singleton self-root edge case
		}
		if g.MaxProof > 0 && len(path) > g.MaxProof {
			return Deduction{}, false
		}
		return Deduction{Pair: p, Match: true, Path: path}, true
	}
	e := g.negative(ra, rb)
	if e == 0 {
		return Deduction{}, false
	}
	witness := g.neg[e-1].witness
	// Orient the witness: wa is the witness endpoint on A's side.
	wa, wb := witness.A, witness.B
	if g.find(wa) != ra {
		wa, wb = wb, wa
	}
	// Both halves of the proof must exist as strong paths: an endpoint
	// connected to its witness side only through a weak, contested link
	// has no admissible chain, exactly like the positive branch.
	pathA := g.forestPath(p.A, wa)
	pathB := g.forestPath(p.B, wb)
	if pathA == nil || pathB == nil {
		return Deduction{}, false
	}
	path := append(pathA, pathB...)
	if g.MaxProof > 0 && len(path)+1 > g.MaxProof {
		return Deduction{}, false
	}
	return Deduction{Pair: p, Match: false, Path: path, Witness: witness, Negative: true}, true
}

// Deducible reports whether Deduce would succeed for p, without
// materializing the proof. Schedulers poll it on hot paths — mid-flight
// retraction checks every in-flight HIT after every completion — where
// building path slices per probe would dominate the collector loop. It
// must agree with Deduce exactly; both sides traverse only strong edges
// and apply the same MaxProof arithmetic.
func (g *Graph) Deducible(p record.Pair) bool {
	ra, rb := g.find(p.A), g.find(p.B)
	if ra == rb && p.A != p.B {
		d, ok := g.strongDist(p.A, p.B)
		return ok && (g.MaxProof <= 0 || d <= g.MaxProof)
	}
	e := g.negative(ra, rb)
	if e == 0 {
		return false
	}
	witness := g.neg[e-1].witness
	wa, wb := witness.A, witness.B
	if g.find(wa) != ra {
		wa, wb = wb, wa
	}
	da, okA := g.strongDist(p.A, wa)
	if !okA {
		return false
	}
	db, okB := g.strongDist(p.B, wb)
	if !okB {
		return false
	}
	return g.MaxProof <= 0 || da+db+1 <= g.MaxProof
}

// search runs a breadth-first search from a to b over strong forest
// edges and returns the index in g.hops of the hop reaching b, or -1
// when no strong path exists. Paths in a forest are unique, so the
// hops back from b are the path.
func (g *Graph) search(a, b record.ID) int {
	g.hops = append(g.hops[:0], hop{node: a, prev: -1})
	if a == b {
		return 0
	}
	if g.gen++; g.gen == 0 {
		clear(g.seen)
		g.gen = 1
	}
	g.seen = append(g.seen, make([]uint32, len(g.parent)-len(g.seen))...)
	if int(a) < len(g.seen) {
		g.seen[a] = g.gen
	}
	for i := 0; i < len(g.hops); i++ {
		if int(g.hops[i].node) >= len(g.forestAt) {
			continue
		}
		for j := g.forestAt[g.hops[i].node]; j != 0; j = g.forest[j-1].next {
			e := g.forest[j-1]
			if g.seen[e.to] == g.gen || !e.strong {
				continue
			}
			g.seen[e.to] = g.gen
			g.hops = append(g.hops, hop{node: e.to, prev: i, via: e.via})
			if e.to == b {
				return len(g.hops) - 1
			}
		}
	}
	return -1
}

// strongDist returns the length of the strong-edge forest path from a
// to b.
func (g *Graph) strongDist(a, b record.ID) (int, bool) {
	d, j := 0, g.search(a, b)
	if j < 0 {
		return 0, false
	}
	for ; g.hops[j].prev >= 0; j = g.hops[j].prev {
		d++
	}
	return d, true
}

// forestPath returns the asked pairs along the strong-edge forest path
// from a to b, or nil when no such path exists (including when the only
// connection runs through a weak, contested link). a == b yields an
// empty (non-nil) path.
func (g *Graph) forestPath(a, b record.ID) []record.Pair {
	d, ok := g.strongDist(a, b)
	if !ok {
		return nil
	}
	path := make([]record.Pair, d)
	for j := len(g.hops) - 1; g.hops[j].prev >= 0; j = g.hops[j].prev {
		d--
		path[d] = g.hops[j].via
	}
	return path
}
