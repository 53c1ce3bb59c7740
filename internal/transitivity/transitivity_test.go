package transitivity

import (
	"math/rand"
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
