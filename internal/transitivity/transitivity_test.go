package transitivity

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"github.com/crowder/crowder/internal/record"
)

func pair(a, b int) record.Pair { return record.MakePair(record.ID(a), record.ID(b)) }

func TestPositiveClosure(t *testing.T) {
	g := New()
	g.Observe(pair(0, 1), true)
	g.Observe(pair(1, 2), true)

	d, ok := g.Deduce(pair(0, 2))
	if !ok || !d.Match {
		t.Fatalf("A=B, B=C must deduce A=C; got ok=%v d=%+v", ok, d)
	}
	if len(d.Path) != 2 || d.Path[0] != pair(0, 1) || d.Path[1] != pair(1, 2) {
		t.Errorf("proof path = %v, want [(0,1) (1,2)]", d.Path)
	}
	if d.Negative {
		t.Error("positive deduction flagged negative")
	}
}

func TestNegativeInference(t *testing.T) {
	g := New()
	g.Observe(pair(0, 1), true)
	g.Observe(pair(2, 3), true)
	g.Observe(pair(1, 2), false) // cluster {0,1} ≠ cluster {2,3}

	d, ok := g.Deduce(pair(0, 3))
	if !ok || d.Match {
		t.Fatalf("A=B, C=D, B≠C must deduce A≠D; got ok=%v d=%+v", ok, d)
	}
	if !d.Negative || d.Witness != pair(1, 2) {
		t.Errorf("witness = %+v, want (1,2)", d)
	}
	// Proof: path 0→1 (witness side A) plus path 3→2 (witness side B).
	want := map[record.Pair]bool{pair(0, 1): true, pair(2, 3): true}
	if len(d.Path) != 2 || !want[d.Path[0]] || !want[d.Path[1]] {
		t.Errorf("proof path = %v, want {(0,1),(2,3)}", d.Path)
	}
}

func TestUnknownPairsNotDeduced(t *testing.T) {
	g := New()
	g.Observe(pair(0, 1), true)
	if _, ok := g.Deduce(pair(0, 2)); ok {
		t.Error("pair with an unobserved endpoint deduced")
	}
	if _, ok := g.Deduce(pair(2, 3)); ok {
		t.Error("pair between two unobserved records deduced")
	}
	g.Observe(pair(2, 3), true)
	if _, ok := g.Deduce(pair(0, 2)); ok {
		t.Error("pair between two clusters with no negative edge deduced")
	}
}

func TestAskedNonMatchInsideClusterIsIgnored(t *testing.T) {
	g := New()
	g.Observe(pair(0, 1), true)
	g.Observe(pair(1, 2), true)
	// Conflicting rejection inside the cluster: positive closure wins,
	// the deduced verdict for (0,2) stays a match.
	g.Observe(pair(0, 2), false)
	d, ok := g.Deduce(pair(0, 2))
	if !ok || !d.Match {
		t.Fatalf("conflicting in-cluster rejection flipped the closure: ok=%v d=%+v", ok, d)
	}
}

func TestAcceptedMatchDropsConflictingNegativeEdge(t *testing.T) {
	g := New()
	g.Observe(pair(0, 1), false) // {0} ≠ {1}
	g.Observe(pair(0, 1), true)  // positive evidence wins; clusters merge
	if g.Root(0) != g.Root(1) {
		t.Fatal("accepted match did not merge the clusters")
	}
	g.Observe(pair(1, 2), true)
	d, ok := g.Deduce(pair(0, 2))
	if !ok || !d.Match {
		t.Fatalf("stale negative edge survived the merge: ok=%v d=%+v", ok, d)
	}
}

func TestNegativeEdgesSurviveUnions(t *testing.T) {
	g := New()
	g.Observe(pair(0, 5), false) // {0} ≠ {5}
	g.Observe(pair(0, 1), true)
	g.Observe(pair(5, 6), true)
	// The negative edge must have followed both unions.
	d, ok := g.Deduce(pair(1, 6))
	if !ok || d.Match {
		t.Fatalf("negative edge lost across unions: ok=%v d=%+v", ok, d)
	}
	if d.Witness != pair(0, 5) {
		t.Errorf("witness = %v, want (0,5)", d.Witness)
	}
}

// TestDeductionsConsistentWithEquivalence drives the graph with the full
// pairwise truth of a random partition and checks every deduced verdict
// against the partition: with consistent input, deduction must never
// invent a wrong verdict, and within fully-asked clusters it must find
// every implied pair.
func TestDeductionsConsistentWithEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 40
	entity := make([]int, n)
	for i := range entity {
		entity[i] = rng.Intn(8)
	}
	g := New()
	var held []record.Pair // pairs withheld from the graph, every third
	k := 0
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			p := pair(a, b)
			k++
			if k%3 == 0 {
				held = append(held, p)
				continue
			}
			g.Observe(p, entity[a] == entity[b])
		}
	}
	deduced := 0
	for _, p := range held {
		d, ok := g.Deduce(p)
		if !ok {
			continue
		}
		deduced++
		if want := entity[p.A] == entity[p.B]; d.Match != want {
			t.Fatalf("deduced %v=%v, truth %v", p, d.Match, want)
		}
		if d.Match && len(d.Path) == 0 {
			t.Errorf("positive deduction for %v has empty proof", p)
		}
		if !d.Match && !d.Negative {
			t.Errorf("negative deduction for %v carries no witness", p)
		}
	}
	if deduced == 0 {
		t.Fatal("no withheld pair was deducible — the test exercises nothing")
	}
	if deduced < len(held)*9/10 {
		// With 2/3 of a complete pair set observed, nearly every held pair
		// is implied. (Not all: a pair between two singleton clusters whose
		// only connecting evidence was the held pair itself stays unknown.)
		t.Errorf("deduced only %d of %d withheld pairs", deduced, len(held))
	}
}

// TestDeterministicAcrossRuns replays one observation sequence twice and
// requires identical deductions, including proofs — the graph must be a
// pure function of the sequence.
func TestDeterministicAcrossRuns(t *testing.T) {
	build := func() *Graph {
		g := New()
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 300; i++ {
			a, b := rng.Intn(30), rng.Intn(30)
			if a == b {
				continue
			}
			g.Observe(pair(a, b), rng.Intn(2) == 0)
		}
		return g
	}
	g1, g2 := build(), build()
	for a := 0; a < 30; a++ {
		for b := a + 1; b < 30; b++ {
			d1, ok1 := g1.Deduce(pair(a, b))
			d2, ok2 := g2.Deduce(pair(a, b))
			if ok1 != ok2 || d1.Match != d2.Match || d1.Witness != d2.Witness || len(d1.Path) != len(d2.Path) {
				t.Fatalf("non-deterministic deduction for (%d,%d): %+v vs %+v", a, b, d1, d2)
			}
			for i := range d1.Path {
				if d1.Path[i] != d2.Path[i] {
					t.Fatalf("non-deterministic proof for (%d,%d)", a, b)
				}
			}
		}
	}
}

// Weak (contested) verdicts shape clusters but must never carry proofs —
// in either direction. A match chain through a weak link is not
// deducible, and neither is a non-match whose endpoint reaches the
// witness only through a weak link (regression: the negative branch
// used to silently drop the nil path half and deduce anyway, with the
// contested link invisible to MaxProof and confidence scoring).
func TestWeakEdgesCarryNoProofs(t *testing.T) {
	g := New()
	g.ObserveStrength(pair(0, 1), true, false) // contested match
	g.Observe(pair(1, 2), true)
	if _, ok := g.Deduce(pair(0, 2)); ok {
		t.Error("positive deduction crossed a weak link")
	}
	if g.Root(0) != g.Root(2) {
		t.Error("weak match did not merge the clusters")
	}

	g2 := New()
	g2.ObserveStrength(pair(1, 2), true, false) // contested: 1=2
	g2.Observe(pair(2, 3), false)               // strong: 2≠3
	if d, ok := g2.Deduce(pair(1, 3)); ok {
		t.Errorf("negative deduction rested on a contested link: %+v", d)
	}
	// The direct witness pair itself is still fine.
	if d, ok := g2.Deduce(pair(2, 3)); ok && d.Match {
		t.Error("witness pair deduced as a match")
	}

	// Weak non-matches never become separation witnesses at all.
	g3 := New()
	g3.Observe(pair(0, 1), true)
	g3.Observe(pair(2, 3), true)
	g3.ObserveStrength(pair(1, 2), false, false)
	if _, ok := g3.Deduce(pair(0, 3)); ok {
		t.Error("negative edge created from a contested rejection")
	}
}

// Deducible is the allocation-light twin of Deduce used on hot paths;
// the two must agree exactly — over random graphs with mixed verdict
// strengths, and at every MaxProof setting.
func TestDeducibleAgreesWithDeduce(t *testing.T) {
	for _, maxProof := range []int{0, 1, 2, 3} {
		g := New()
		g.MaxProof = maxProof
		rng := rand.New(rand.NewSource(17))
		for i := 0; i < 400; i++ {
			a, b := rng.Intn(25), rng.Intn(25)
			if a == b {
				continue
			}
			g.ObserveStrength(pair(a, b), rng.Intn(3) > 0, rng.Intn(4) > 0)
		}
		for a := 0; a < 25; a++ {
			for b := a + 1; b < 25; b++ {
				_, ok := g.Deduce(pair(a, b))
				if got := g.Deducible(pair(a, b)); got != ok {
					t.Fatalf("MaxProof=%d: Deducible(%d,%d)=%v but Deduce ok=%v", maxProof, a, b, got, ok)
				}
			}
		}
	}
}

// refGraph is the map-based deduction graph the dense Graph replaced,
// kept as its reference: union-find, proof forest and negative edges in
// hash maps keyed by record ID, proofs found by a map-marked BFS.
type refGraph struct {
	parent   map[record.ID]record.ID
	rank     map[record.ID]int
	forest   map[record.ID][]forestEdge
	neg      map[record.ID]map[record.ID]record.Pair
	maxProof int
}

func newRef(maxProof int) *refGraph {
	return &refGraph{
		parent:   map[record.ID]record.ID{},
		rank:     map[record.ID]int{},
		forest:   map[record.ID][]forestEdge{},
		neg:      map[record.ID]map[record.ID]record.Pair{},
		maxProof: maxProof,
	}
}

func (g *refGraph) find(v record.ID) record.ID {
	p, ok := g.parent[v]
	if !ok || p == v {
		return v
	}
	root := g.find(p)
	g.parent[v] = root
	return root
}

func (g *refGraph) ensure(v record.ID) {
	if _, ok := g.parent[v]; !ok {
		g.parent[v] = v
	}
}

func (g *refGraph) observe(p record.Pair, match, strong bool) {
	ra, rb := g.find(p.A), g.find(p.B)
	if ra == rb || (!match && !strong) {
		return
	}
	g.ensure(p.A)
	g.ensure(p.B)
	if !match {
		g.addNegative(ra, rb, p)
		return
	}
	g.forest[p.A] = append(g.forest[p.A], forestEdge{to: p.B, via: p, strong: strong})
	g.forest[p.B] = append(g.forest[p.B], forestEdge{to: p.A, via: p, strong: strong})
	if g.rank[ra] < g.rank[rb] {
		ra, rb = rb, ra
	}
	g.parent[rb] = ra
	if g.rank[ra] == g.rank[rb] {
		g.rank[ra]++
	}
	delete(g.neg[ra], rb)
	for other, witness := range g.neg[rb] {
		delete(g.neg[other], rb)
		if other != ra {
			g.addNegative(ra, other, witness)
		}
	}
	delete(g.neg, rb)
}

func (g *refGraph) addNegative(ra, rb record.ID, witness record.Pair) {
	if existing, ok := g.neg[ra][rb]; ok && !pairLess(witness, existing) {
		return
	}
	for _, e := range [2][2]record.ID{{ra, rb}, {rb, ra}} {
		if g.neg[e[0]] == nil {
			g.neg[e[0]] = map[record.ID]record.Pair{}
		}
		g.neg[e[0]][e[1]] = witness
	}
}

func (g *refGraph) deduce(p record.Pair) (Deduction, bool) {
	ra, rb := g.find(p.A), g.find(p.B)
	if ra == rb && p.A != p.B {
		path := g.forestPath(p.A, p.B)
		if path == nil || (g.maxProof > 0 && len(path) > g.maxProof) {
			return Deduction{}, false
		}
		return Deduction{Pair: p, Match: true, Path: path}, true
	}
	witness, ok := g.neg[ra][rb]
	if !ok {
		return Deduction{}, false
	}
	wa, wb := witness.A, witness.B
	if g.find(wa) != ra {
		wa, wb = wb, wa
	}
	pathA, pathB := g.forestPath(p.A, wa), g.forestPath(p.B, wb)
	if pathA == nil || pathB == nil {
		return Deduction{}, false
	}
	path := append(pathA, pathB...)
	if g.maxProof > 0 && len(path)+1 > g.maxProof {
		return Deduction{}, false
	}
	return Deduction{Pair: p, Path: path, Witness: witness, Negative: true}, true
}

func (g *refGraph) forestPath(a, b record.ID) []record.Pair {
	if a == b {
		return []record.Pair{}
	}
	type step struct {
		node record.ID
		prev int
		via  record.Pair
	}
	steps := []step{{node: a, prev: -1}}
	seen := map[record.ID]bool{a: true}
	for i := 0; i < len(steps); i++ {
		for _, e := range g.forest[steps[i].node] {
			if seen[e.to] || !e.strong {
				continue
			}
			seen[e.to] = true
			steps = append(steps, step{node: e.to, prev: i, via: e.via})
			if e.to == b {
				var path []record.Pair
				for j := len(steps) - 1; steps[j].prev >= 0; j = steps[j].prev {
					path = append([]record.Pair{steps[j].via}, path...)
				}
				return path
			}
		}
	}
	return nil
}

// FuzzGraphMatchesReference replays observation sequences on one dense
// Graph, Reset between sequences, and on a fresh refGraph each, and
// requires both to agree on every pair of touched IDs: Deduce (verdict,
// proof path and witness), Deducible, and the cluster root. Byte 0 picks
// the first sequence's MaxProof (each later one takes the next, mod 4);
// 0xff separates sequences; within one, each observation is two bytes:
// the first carries A in its low five bits, the verdict in bit 5 and the
// strength in bit 6, the second carries B in its low five bits.
func FuzzGraphMatchesReference(f *testing.F) {
	f.Add([]byte{3, 0x61, 1, 0x62, 2, 0x43, 5, 0x40, 5, 0x65, 6, 0xff, 0x21, 2, 0x61, 1, 0x43, 2})
	f.Add([]byte{0, 0x40, 5, 0x60, 1, 0x65, 6, 0x41, 6, 0x60, 1, 0x66, 7, 0x40, 7})
	rng := rand.New(rand.NewSource(5))
	for s := 0; s < 4; s++ {
		seq := []byte{byte(s)}
		for i := 0; i < 120; i++ {
			if i%40 == 39 {
				seq = append(seq, 0xff)
			}
			seq = append(seq, byte(rng.Intn(12))|byte(rng.Intn(2))<<5|byte(min(rng.Intn(4), 1))<<6, byte(rng.Intn(12)))
		}
		f.Add(seq)
	}
	g := New()
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		for s, seq := range bytes.Split(data[1:], []byte{0xff}) {
			g.Reset()
			g.MaxProof = (int(data[0]) + s) % 4
			ref := newRef(g.MaxProof)
			var ids []record.ID
			touched := map[record.ID]bool{}
			for i := 0; i+1 < len(seq); i += 2 {
				p := pair(int(seq[i]&31), int(seq[i+1]&31))
				match, strong := seq[i]&0x20 != 0, seq[i]&0x40 != 0
				g.ObserveStrength(p, match, strong)
				ref.observe(p, match, strong)
				for _, v := range []record.ID{p.A, p.B} {
					if !touched[v] {
						touched[v] = true
						ids = append(ids, v)
					}
				}
			}
			for _, a := range ids {
				if g.Root(a) != ref.find(a) {
					t.Fatalf("sequence %d: Root(%d) = %d; reference %d", s, a, g.Root(a), ref.find(a))
				}
				for _, b := range ids {
					p := record.Pair{A: a, B: b}
					got, ok := g.Deduce(p)
					want, wantOK := ref.deduce(p)
					if ok != wantOK || !reflect.DeepEqual(got, want) {
						t.Fatalf("sequence %d, MaxProof %d: Deduce(%v) = %+v, %v; reference %+v, %v", s, g.MaxProof, p, got, ok, want, wantOK)
					}
					if g.Deducible(p) != ok {
						t.Fatalf("sequence %d, MaxProof %d: Deducible(%v) = %v; Deduce %v", s, g.MaxProof, p, !ok, ok)
					}
				}
			}
		}
	})
}
