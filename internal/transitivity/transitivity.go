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

// forestEdge is one accepted asked pair seen from one endpoint. Weak
// edges (non-unanimous crowd majorities) merge clusters but cannot
// carry proofs: deductions built on contested links would compound the
// noise they rest on.
type forestEdge struct {
	to     record.ID
	via    record.Pair
	strong bool
}

// Graph is the deduction graph over crowd verdicts.
type Graph struct {
	parent map[record.ID]record.ID
	rank   map[record.ID]int
	// forest is the spanning forest of accepted asked pairs: acyclic by
	// construction (an edge is added only when it merges two clusters),
	// it spans every cluster and provides proof paths.
	forest map[record.ID][]forestEdge
	// neg[r1][r2] is the asked non-match pair that witnessed cluster r1
	// and cluster r2 being distinct entities (symmetric). Only strong
	// (unanimous) rejections become witnesses: a contested non-match is
	// too thin a base for inferring other pairs apart.
	neg map[record.ID]map[record.ID]record.Pair

	// MaxProof, when positive, bounds the number of asked pairs a
	// deduction may rest on (path edges, plus the witness for negative
	// deductions). Crowd answers are noisy and chains compound error —
	// a ten-link chain of 95%-confident matches is only ~60% confident —
	// so schedulers cap the proof length and ask the crowd directly for
	// anything that would need a longer one. 0 means unlimited.
	MaxProof int
}

// New creates an empty deduction graph.
func New() *Graph {
	return &Graph{
		parent: make(map[record.ID]record.ID),
		rank:   make(map[record.ID]int),
		forest: make(map[record.ID][]forestEdge),
		neg:    make(map[record.ID]map[record.ID]record.Pair),
	}
}

// find returns the cluster root of v with path compression. Records
// never observed are their own singleton cluster.
func (g *Graph) find(v record.ID) record.ID {
	p, ok := g.parent[v]
	if !ok {
		return v
	}
	if p == v {
		return v
	}
	root := g.find(p)
	g.parent[v] = root
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
	if !match {
		ra, rb := g.find(p.A), g.find(p.B)
		if ra == rb {
			return // conflicts with the positive closure; positive wins
		}
		if !strong {
			return // a contested rejection is too thin to separate clusters
		}
		g.ensure(p.A)
		g.ensure(p.B)
		g.addNegative(ra, rb, p)
		return
	}
	ra, rb := g.find(p.A), g.find(p.B)
	if ra == rb {
		return // already connected; the forest keeps its existing proof
	}
	g.ensure(p.A)
	g.ensure(p.B)
	// The accepted pair becomes a forest edge — it merges two trees, so
	// the forest stays acyclic and spanning.
	g.forest[p.A] = append(g.forest[p.A], forestEdge{to: p.B, via: p, strong: strong})
	g.forest[p.B] = append(g.forest[p.B], forestEdge{to: p.A, via: p, strong: strong})
	g.union(ra, rb)
}

// ensure registers v as its own cluster if unseen.
func (g *Graph) ensure(v record.ID) {
	if _, ok := g.parent[v]; !ok {
		g.parent[v] = v
	}
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
	delete(g.neg[ra], rb)
	for other, witness := range g.neg[rb] {
		delete(g.neg[other], rb)
		if other == ra {
			continue // the dropped conflicting edge, seen from the far side
		}
		g.addNegative(ra, other, witness)
	}
	delete(g.neg, rb)
}

// addNegative records a negative edge between two cluster roots. When
// both merging clusters were distinct from the same third cluster, two
// witnesses compete for one edge; the canonically smaller pair wins so
// the surviving witness is independent of map iteration order.
func (g *Graph) addNegative(ra, rb record.ID, witness record.Pair) {
	if existing, ok := g.neg[ra][rb]; ok && !pairLess(witness, existing) {
		return
	}
	g.setNegative(ra, rb, witness)
	g.setNegative(rb, ra, witness)
}

func (g *Graph) setNegative(from, to record.ID, witness record.Pair) {
	m, ok := g.neg[from]
	if !ok {
		m = make(map[record.ID]record.Pair)
		g.neg[from] = m
	}
	m[to] = witness
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
	witness, ok := g.neg[ra][rb]
	if !ok {
		return Deduction{}, false
	}
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
// building hop records and path slices per probe would dominate the
// collector loop. It must agree with Deduce exactly; both sides
// traverse only strong edges and apply the same MaxProof arithmetic.
func (g *Graph) Deducible(p record.Pair) bool {
	ra, rb := g.find(p.A), g.find(p.B)
	if ra == rb && p.A != p.B {
		d, ok := g.strongDist(p.A, p.B)
		return ok && (g.MaxProof <= 0 || d <= g.MaxProof)
	}
	witness, ok := g.neg[ra][rb]
	if !ok {
		return false
	}
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

// strongDist returns the length of the strong-edge forest path from a
// to b. Paths in a forest are unique, so BFS depth is the path length.
func (g *Graph) strongDist(a, b record.ID) (int, bool) {
	if a == b {
		return 0, true
	}
	type at struct {
		node record.ID
		dist int
	}
	queue := []at{{node: a}}
	seen := map[record.ID]bool{a: true}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		for _, e := range g.forest[h.node] {
			if seen[e.to] || !e.strong {
				continue
			}
			if e.to == b {
				return h.dist + 1, true
			}
			seen[e.to] = true
			queue = append(queue, at{node: e.to, dist: h.dist + 1})
		}
	}
	return 0, false
}

// forestPath returns the asked pairs along the strong-edge forest path
// from a to b, or nil when no such path exists (including when the only
// connection runs through a weak, contested link). a == b yields an
// empty (non-nil) path.
func (g *Graph) forestPath(a, b record.ID) []record.Pair {
	if a == b {
		return []record.Pair{}
	}
	// BFS over the proof forest; cluster trees are small relative to the
	// candidate set, and paths are unique in a forest.
	type hop struct {
		node record.ID
		prev int // index into hops, -1 at the start
		via  record.Pair
	}
	hops := []hop{{node: a, prev: -1}}
	seen := map[record.ID]bool{a: true}
	for i := 0; i < len(hops); i++ {
		h := hops[i]
		for _, e := range g.forest[h.node] {
			if seen[e.to] || !e.strong {
				continue
			}
			seen[e.to] = true
			hops = append(hops, hop{node: e.to, prev: i, via: e.via})
			if e.to == b {
				var path []record.Pair
				for j := len(hops) - 1; hops[j].prev >= 0; j = hops[j].prev {
					path = append(path, hops[j].via)
				}
				// Reverse into a-to-b order.
				for l, r := 0, len(path)-1; l < r; l, r = l+1, r-1 {
					path[l], path[r] = path[r], path[l]
				}
				return path
			}
		}
	}
	return nil
}
