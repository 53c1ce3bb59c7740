// Package similarity implements the string- and set-similarity functions
// used by CrowdER's machine pass and by the learning-based baseline:
// Jaccard set similarity, TF cosine similarity, and Levenshtein edit
// distance (raw and normalized).
//
// Jaccard operates on the interned representation of the data model
// (record.Table.TokenIDs): a token set is a strictly ascending []int32
// of dense token IDs, and every intersection is a branch-light linear
// merge (or, for skewed sizes, a gallop) over two sorted slices — no
// hashing on the hot path.
//
// All similarity functions return values in [0, 1], are symmetric, and
// return 1 for identical non-empty inputs.
package similarity

import (
	"math"

	"github.com/crowder/crowder/internal/record"
)

// intersectSorted returns |a ∩ b| for two strictly ascending sorted
// slices by a linear merge.
func intersectSorted(a, b []int32) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			n++
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return n
}

// IntersectSize returns |a ∩ b| for two sorted token-ID sets. When one
// set is much larger than the other it gallops instead of merging.
func IntersectSize(a, b []int32) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(b) >= gallopSkewRatio*len(a) {
		return IntersectSizeGalloping(a, b)
	}
	return intersectSorted(a, b)
}

// gallopSkewRatio is the size skew at which galloping beats the linear
// merge: below it the merge's branch-light loop wins on real data.
const gallopSkewRatio = 16

// IntersectSizeGalloping returns |a ∩ b| by galloping search: for each
// element of the smaller set, an exponential probe followed by a binary
// search locates its insertion point in the larger set, so the cost is
// O(|small|·log(|large|/|small|)) rather than O(|small| + |large|). The
// result is exactly IntersectSize; the join's verification step uses it
// when a short probing record meets a long indexed one.
func IntersectSizeGalloping(small, large []int32) int {
	if len(small) > len(large) {
		small, large = large, small
	}
	n, lo := 0, 0
	for _, v := range small {
		// Exponential probe from the current frontier.
		step := 1
		hi := lo
		for hi < len(large) && large[hi] < v {
			lo = hi + 1
			hi += step
			step <<= 1
		}
		if hi > len(large) {
			hi = len(large)
		}
		// Binary search in the bracketed window [lo, hi).
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if large[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo == len(large) {
			break
		}
		if large[lo] == v {
			n++
			lo++
		}
	}
	return n
}

// Jaccard returns |a ∩ b| / |a ∪ b| over sorted token-ID sets. By
// convention two empty sets have similarity 1 (they are identical).
// Skewed set sizes take the galloping path (see IntersectSize).
func Jaccard(a, b []int32) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	inter := IntersectSize(a, b)
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// TF is a term-frequency vector over tokens.
type TF map[string]float64

// NewTF builds a term-frequency vector from a token slice (with multiplicity).
func NewTF(tokens []string) TF {
	tf := make(TF, len(tokens))
	for _, t := range tokens {
		tf[t]++
	}
	return tf
}

// CosineTF returns the cosine similarity between two term-frequency vectors.
func CosineTF(a, b TF) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	small, large := a, b
	if len(large) < len(small) {
		small, large = large, small
	}
	var dot float64
	for t, w := range small {
		if w2, ok := large[t]; ok {
			dot += w * w2
		}
	}
	var na, nb float64
	for _, w := range a {
		na += w * w
	}
	for _, w := range b {
		nb += w * w
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// CosineStrings tokenizes both strings (with normalization) and returns the
// TF cosine similarity. This is the "cosine similarity" feature used by the
// SVM baseline in Section 7.3 (following Köpcke et al.).
func CosineStrings(a, b string) float64 {
	return CosineTF(NewTF(record.Tokenize(a)), NewTF(record.Tokenize(b)))
}

// Levenshtein returns the edit distance between a and b: the minimum
// number of single-rune insertions, deletions and substitutions needed to
// transform a into b.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	// Keep the shorter string in the inner dimension to bound memory.
	if len(rb) > len(ra) {
		ra, rb = rb, ra
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			del := prev[j] + 1
			ins := cur[j-1] + 1
			sub := prev[j-1] + cost
			m := del
			if ins < m {
				m = ins
			}
			if sub < m {
				m = sub
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// LevenshteinSim returns 1 − d(a,b)/max(|a|,|b|), a similarity in [0, 1].
// Two empty strings have similarity 1.
func LevenshteinSim(a, b string) float64 {
	ra, rb := []rune(a), []rune(b)
	max := len(ra)
	if len(rb) > max {
		max = len(rb)
	}
	if max == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(a, b))/float64(max)
}
