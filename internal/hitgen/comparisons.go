package hitgen

import (
	"slices"
	"sort"

	"github.com/crowder/crowder/internal/record"
)

// This file implements the back-of-the-envelope comparison model of
// Section 6: how many record comparisons a worker performs to complete a
// HIT.
//
// A pair-based HIT needs exactly one comparison per batched pair. For a
// cluster-based HIT with n records partitioned into entities e1..em
// (identified in that order), Equation 1 gives
//
//	Σ_{i=1..m} ( n − 1 − Σ_{j<i} |e_j| )
//
// comparisons, equivalently Equation 2: (n−1)·m − Σ_{i=1..m−1} (m−i)·|e_i|.
//
// Equation 2's weights (m−i) decrease with i, so by the rearrangement
// inequality the subtraction is maximized — and the comparison count
// minimized — when entities are identified in DESCENDING size order. This
// matches the paper's own Example 4 (the size-3 entity is identified first,
// yielding the minimum 3 comparisons; identifying the singleton first would
// need 5). The prose in Section 6 says "increasing order", which is
// inconsistent with its own equation and example; we follow the math.

// PairHITComparisons returns the comparisons needed for a pair-based HIT:
// one per pair (Section 6: "each pair in the HIT is treated separately").
func PairHITComparisons(h PairHIT) int { return len(h.Pairs) }

// ClusterComparisons evaluates Equation 1 for a cluster-based HIT with
// entity sizes given in identification order. n is the total number of
// records (must equal the sum of sizes).
func ClusterComparisons(entitySizes []int) int {
	n := 0
	for _, s := range entitySizes {
		n += s
	}
	total := 0
	identified := 0
	for _, s := range entitySizes {
		total += n - 1 - identified
		identified += s
	}
	return total
}

// BestOrderComparisons returns the minimum comparisons over entity
// identification orders: descending size (see the package comment on the
// direction; this is the order the paper's Example 4 uses).
func BestOrderComparisons(entitySizes []int) int {
	s := append([]int(nil), entitySizes...)
	sort.Sort(sort.Reverse(sort.IntSlice(s)))
	return ClusterComparisons(s)
}

// EntitySizes partitions the records of a cluster-based HIT into entities
// according to a ground-truth match set, returning the entity sizes in
// ascending order. Ascending is the worst identification order, not the
// best: by Equation 2 and Example 4 a sensible worker identifies entities
// in descending size, the order BestOrderComparisons sorts them into
// (see the file comment). Records not matching anything inside the
// HIT form singleton entities. Entities are the connected components of
// the match relation restricted to the HIT (matching is transitively
// closed within a HIT by the colour-labelling interface of Figure 4).
func EntitySizes(h ClusterHIT, matches record.PairSet) []int {
	// Union-find over the HIT's records.
	parent := make([]int, len(h.Records))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for i, a := range h.Records {
		for j := i + 1; j < len(h.Records); j++ {
			if matches.Has(a, h.Records[j]) {
				union(i, j)
			}
		}
	}
	counts := make([]int, len(h.Records))
	for i := range h.Records {
		counts[find(i)]++
	}
	sizes := slices.DeleteFunc(counts, func(c int) bool { return c == 0 })
	sort.Ints(sizes)
	return sizes
}

// HITSetComparisons sums the best-order comparisons across a set of
// cluster-based HITs under the given ground truth; it quantifies total
// worker effort for a generation strategy.
func HITSetComparisons(hits []ClusterHIT, matches record.PairSet) int {
	total := 0
	for _, h := range hits {
		total += BestOrderComparisons(EntitySizes(h, matches))
	}
	return total
}
