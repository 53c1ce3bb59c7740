// Package simjoin implements the machine pass of CrowdER's hybrid
// workflow: computing a likelihood (Jaccard similarity over record token
// sets) for every candidate pair and retaining pairs at or above a
// threshold (Section 7.1's "simjoin").
//
// Rather than comparing all O(n²) pairs, Join uses prefix filtering with an
// inverted index — the indexing the paper's footnote 1 alludes to ("we can
// adopt some indexing techniques ... to avoid all-pairs comparison"). The
// implementation runs over the table's interned token IDs
// (record.Table.TokenIDs): the inverted index maps dense token IDs to
// block-compressed posting lists (PostingList: delta-encoded IDs in
// independently decodable blocks), and both the per-delta prefix build
// and the probe phase are spread across Options.Parallelism workers. A
// probe handles each posting collision in this order: the summary
// filter — a 24-byte per-record {128-bit signature, size} that bounds
// |x Δ y| from below and rejects, exactly, pairs that cannot reach the
// threshold without touching their token arrays (see recSummary) — then,
// for the few survivors, dedupe against the worker's stamp array, source
// admissibility, and only then the exact score, a merge (galloping when
// the set sizes are skewed) over sorted []int32. The Index type is the
// persistent, incrementally maintained form of the same join: new records
// probe the postings built by earlier batches and then insert themselves,
// so a delta of d records costs O(d·candidates) instead of a full
// re-join. Candidates stream out of Index.UpdateSeq one at a time, so a
// consumer ranking with a bounded top-K heap never materializes the full
// candidate set; Index.Update and the one-shot Join are the materializing
// wrappers, canonically sorted and bit-identical at every parallelism
// level.
package simjoin

import (
	"cmp"
	"math"
	"slices"

	"github.com/crowder/crowder/internal/engine"
	"github.com/crowder/crowder/internal/record"
)

// ScoredPair is a candidate pair with its machine likelihood.
type ScoredPair struct {
	Pair       record.Pair
	Likelihood float64
}

// CompareScored is the canonical total order over scored pairs:
// likelihood descending, then pair A ascending, then B ascending. It is
// the comparator behind SortScored and the one streaming consumers (the
// resolver's top-K ranking heap) use, which is what makes a ranked
// collection of the unordered UpdateSeq stream deterministic.
func CompareScored(a, b ScoredPair) int {
	if c := cmp.Compare(b.Likelihood, a.Likelihood); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Pair.A, b.Pair.A); c != 0 {
		return c
	}
	return cmp.Compare(a.Pair.B, b.Pair.B)
}

// SortScored orders pairs by CompareScored in place: likelihood
// descending, tie-breaking on the canonical pair order. The workflow's
// ranked output and the precision-recall evaluation both rely on this
// ordering.
func SortScored(ps []ScoredPair) {
	slices.SortFunc(ps, CompareScored)
}

// Options configures a join.
type Options struct {
	// Threshold is the minimum Jaccard likelihood to retain (inclusive).
	Threshold float64
	// CrossSourceOnly restricts the join to pairs whose records come from
	// different sources (Table.Source), matching the Product dataset where
	// only abt×buy pairs are candidates (1081 × 1092 pairs, Section 7.1).
	CrossSourceOnly bool
	// Parallelism is the number of worker goroutines the probe phase is
	// sharded across. 0 (the default) means GOMAXPROCS. The output is
	// bit-identical at every parallelism level: workers partition the
	// probing records, and the merged result is canonically sorted.
	Parallelism int
}

func (o Options) workers(n int) int {
	return engine.WorkerCount(o.Parallelism, n)
}

func (o Options) crossOK(t *record.Table, a, b record.ID) bool {
	return t.CrossOK(o.CrossSourceOnly, a, b)
}

// Join returns all pairs of distinct records in t whose Jaccard likelihood
// is at least opts.Threshold, sorted by likelihood descending. It uses
// prefix filtering: tokens are ordered by ascending global frequency, each
// record indexes only its first len−⌈τ·len⌉+1 tokens, and candidates are
// generated from index collisions, then confirmed with the summary filter
// (size and signature bounds) and an exact merge-intersection. Records with empty token sets pair with each
// other at likelihood 1 (the empty-set convention), keeping Join equal
// to the all-pairs definition on every input. With τ = 0 the prefix
// degenerates to every token, so Join switches to a sharded all-pairs
// scan instead.
//
// Join is the one-shot form of the incremental Index: it builds a fresh
// Index over the table and absorbs every record in a single Update, so the
// batch and delta paths share one implementation.
func Join(t *record.Table, opts Options) []ScoredPair {
	if t.Len() == 0 {
		return nil
	}
	return NewIndex(t, opts).Update()
}

// prefixLen returns the number of tokens a record of the given size must
// index so that any pair with Jaccard ≥ tau shares an indexed token:
// len − ⌈τ·len⌉ + 1 (standard prefix-filtering bound). The ceiling is
// biased downward by an epsilon so floating-point noise can only lengthen
// the prefix, never shorten it: the seed computed ⌊(1−τ)·len⌋ + 1
// directly, and e.g. 5·(1−0.8) evaluates to 0.99999…, truncating the
// prefix one short and silently dropping pairs at exactly the threshold.
// Unsatisfiable thresholds (τ > 1) yield 0: nothing needs indexing
// because nothing can match.
func prefixLen(length int, tau float64) int {
	if length == 0 {
		return 0
	}
	if tau <= 0 {
		return length
	}
	ceil := int(math.Ceil(tau*float64(length) - 1e-9))
	if ceil < 0 {
		ceil = 0
	}
	p := length - ceil + 1
	if p > length {
		p = length
	}
	if p < 0 {
		p = 0
	}
	return p
}

// passesLengthFilter reports whether a pair with token-set sizes la, lb
// can reach Jaccard ≥ tau: τ·|x| ≤ |y| ≤ |x|/τ. The epsilon keeps
// floating-point noise in τ·hi from pruning pairs at exactly the bound.
func passesLengthFilter(la, lb int, tau float64) bool {
	if tau <= 0 {
		return true
	}
	lo, hi := la, lb
	if lo > hi {
		lo, hi = hi, lo
	}
	return float64(lo)+1e-9 >= tau*float64(hi)
}

// Pairs extracts just the pairs from a scored slice, preserving order.
func Pairs(sp []ScoredPair) []record.Pair {
	out := make([]record.Pair, len(sp))
	for i, s := range sp {
		out[i] = s.Pair
	}
	return out
}

// FilterThreshold returns the scored pairs with likelihood ≥ tau,
// preserving order. Useful for sweeping thresholds over a single
// low-threshold join result (Table 2's sweep reuses one join at the
// lowest threshold).
func FilterThreshold(sp []ScoredPair, tau float64) []ScoredPair {
	var out []ScoredPair
	for _, s := range sp {
		if s.Likelihood >= tau {
			out = append(out, s)
		}
	}
	return out
}
