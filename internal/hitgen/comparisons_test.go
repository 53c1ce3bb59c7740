package hitgen

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"github.com/crowder/crowder/internal/record"
)

func TestClusterComparisonsExample4(t *testing.T) {
	// Example 4: HIT {r1,r2,r3,r7} with entities e1={r1,r2,r7}, e2={r3}.
	// Identifying e1 first takes 3 comparisons, then e2 needs none.
	if got := ClusterComparisons([]int{3, 1}); got != 3 {
		t.Fatalf("comparisons = %d; want 3", got)
	}
	// A pair-based HIT over the same four checkable pairs needs 4.
	ph := PairHIT{Pairs: []record.Pair{{A: 1, B: 2}, {A: 1, B: 7}, {A: 2, B: 3}, {A: 2, B: 7}}}
	if got := PairHITComparisons(ph); got != 4 {
		t.Fatalf("pair comparisons = %d; want 4", got)
	}
}

func TestClusterComparisonsExtremes(t *testing.T) {
	// Section 6, observation 1's extreme cases for n = 6.
	// No duplicates: n singletons → n(n−1)/2 comparisons.
	if got := ClusterComparisons([]int{1, 1, 1, 1, 1, 1}); got != 15 {
		t.Fatalf("all-singletons = %d; want 15", got)
	}
	// All duplicates: one entity of n records → n−1 comparisons.
	if got := ClusterComparisons([]int{6}); got != 5 {
		t.Fatalf("one-entity = %d; want 5", got)
	}
}

func TestClusterComparisonsOrderMatters(t *testing.T) {
	// Identifying large entities first minimizes the count (the order the
	// paper's Example 4 uses; see the package comment on the prose typo).
	sizes := []int{1, 2, 3}
	best := BestOrderComparisons(sizes)
	worst := WorstOrderComparisons(sizes)
	if best > worst {
		t.Fatalf("best (%d) > worst (%d)", best, worst)
	}
	// Descending [3,2,1], n=6: (5) + (5−3) + (5−5) = 7.
	if best != 7 {
		t.Fatalf("best = %d; want 7", best)
	}
	// Ascending [1,2,3]: (5) + (5−1) + (5−3) = 11.
	if worst != 11 {
		t.Fatalf("worst = %d; want 11", worst)
	}
}

func TestDescendingIsMinimumExhaustive(t *testing.T) {
	// Verify against all permutations that descending size order attains
	// the true minimum and ascending the true maximum.
	sizes := []int{1, 2, 3, 4}
	min, max := 1<<30, -1
	for _, p := range permutations(sizes) {
		c := ClusterComparisons(p)
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if best := BestOrderComparisons(sizes); best != min {
		t.Fatalf("BestOrderComparisons = %d; true min %d", best, min)
	}
	if worst := WorstOrderComparisons(sizes); worst != max {
		t.Fatalf("WorstOrderComparisons = %d; true max %d", worst, max)
	}
}

func permutations(xs []int) [][]int {
	if len(xs) <= 1 {
		return [][]int{append([]int(nil), xs...)}
	}
	var out [][]int
	for i := range xs {
		rest := make([]int, 0, len(xs)-1)
		rest = append(rest, xs[:i]...)
		rest = append(rest, xs[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]int{xs[i]}, p...))
		}
	}
	return out
}

// Property: Equation 1 and Equation 2 agree for every entity partition.
func TestEq1EqualsEq2Property(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(8)
		sizes := make([]int, m)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(5)
		}
		return ClusterComparisons(sizes) == ClusterComparisonsEq2(sizes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: comparisons bounded between n−1 (single entity) and n(n−1)/2
// (all singletons), and more duplicates never increase the count.
func TestComparisonBoundsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := 1 + rng.Intn(6)
		sizes := make([]int, m)
		n := 0
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(4)
			n += sizes[i]
		}
		c := BestOrderComparisons(sizes)
		return c >= n-1 && c <= n*(n-1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestEntitySizes(t *testing.T) {
	matches := record.NewPairSet(
		record.MakePair(1, 2),
		record.MakePair(2, 7), // transitive: {1,2,7} one entity
	)
	h := ClusterHIT{Records: []record.ID{1, 2, 3, 7}}
	sizes := EntitySizes(h, matches)
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 3 {
		t.Fatalf("EntitySizes = %v; want [1 3]", sizes)
	}
}

func TestEntitySizesNoMatches(t *testing.T) {
	h := ClusterHIT{Records: []record.ID{1, 2, 3}}
	sizes := EntitySizes(h, record.NewPairSet())
	if len(sizes) != 3 {
		t.Fatalf("EntitySizes = %v; want three singletons", sizes)
	}
}

func TestEntitySizesIgnoresOutsideMatches(t *testing.T) {
	// Matches to records outside the HIT must not affect the partition.
	matches := record.NewPairSet(record.MakePair(1, 99))
	h := ClusterHIT{Records: []record.ID{1, 2}}
	sizes := EntitySizes(h, matches)
	if len(sizes) != 2 {
		t.Fatalf("EntitySizes = %v; want [1 1]", sizes)
	}
}

func TestHITSetComparisons(t *testing.T) {
	matches := record.NewPairSet(
		record.MakePair(1, 2), record.MakePair(1, 7), record.MakePair(2, 7),
	)
	hits := []ClusterHIT{
		{Records: []record.ID{1, 2, 3, 7}}, // Example 4: 3 comparisons
		{Records: []record.ID{4, 5}},       // two singletons: 1 comparison
	}
	if got := HITSetComparisons(hits, matches); got != 4 {
		t.Fatalf("HITSetComparisons = %d; want 4", got)
	}
}

// Property: a HIT with more internal matches never needs more comparisons
// than the same-size HIT with fewer matches (Section 6, observation 1).
func TestMoreMatchesFewerComparisonsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		ids := make([]record.ID, n)
		for i := range ids {
			ids[i] = record.ID(i)
		}
		h := ClusterHIT{Records: ids}
		// Build an increasing chain of match sets.
		matches := record.NewPairSet()
		prev := BestOrderComparisons(EntitySizes(h, matches))
		for step := 0; step < 5; step++ {
			a := record.ID(rng.Intn(n))
			b := record.ID(rng.Intn(n))
			if a == b {
				continue
			}
			matches.Add(a, b)
			cur := BestOrderComparisons(EntitySizes(h, matches))
			if cur > prev {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// ClusterComparisonsEq2 evaluates the equivalent Equation 2 form:
// (n−1)·m − Σ_{i=1..m−1} (m−i)·|e_i|. The tests check it against
// ClusterComparisons: the paper's algebraic equivalence claim.
func ClusterComparisonsEq2(entitySizes []int) int {
	n, m := 0, len(entitySizes)
	for _, s := range entitySizes {
		n += s
	}
	total := (n - 1) * m
	for i := 0; i < m-1; i++ {
		total -= (m - 1 - i) * entitySizes[i]
	}
	return total
}

// WorstOrderComparisons returns the maximum comparisons over entity
// identification orders: ascending size.
func WorstOrderComparisons(entitySizes []int) int {
	s := append([]int(nil), entitySizes...)
	sort.Ints(s)
	return ClusterComparisons(s)
}
