// Package hitgen implements CrowdER's HIT generation (Sections 3–5):
// batching a set of record pairs into Human Intelligence Tasks.
//
// Pair-based HITs batch k independent pairs per task (Section 3.1).
// Cluster-based HITs batch up to k records per task and ask the worker to
// find all matches inside the group (Section 3.2, Definition 1). Because
// minimizing the number of cluster-based HITs is NP-hard (Theorem 1), the
// package provides the paper's heuristics and baselines:
//
//   - Random    — merge random pairs until the HIT is full (Section 7.2)
//   - BFS/DFS   — fill HITs in graph-traversal order (Section 7.2)
//   - Approx    — the Goldschmidt et al. (k/2 + k/(k−1))-approximation for
//     k-clique edge covering (Section 4)
//   - TwoTiered — the paper's contribution: greedy LCC partitioning (top
//     tier, Algorithm 2) plus cutting-stock SCC packing (bottom tier,
//     Section 5.3)
package hitgen

import (
	"fmt"
	"slices"
	"sort"

	"github.com/crowder/crowder/internal/graph"
	"github.com/crowder/crowder/internal/record"
)

// PairHIT is a pair-based HIT: a batch of record pairs, each verified
// independently by the worker.
type PairHIT struct {
	Pairs []record.Pair
}

// ClusterHIT is a cluster-based HIT: a group of records among which the
// worker identifies all duplicates.
type ClusterHIT struct {
	Records []record.ID
}

// Size returns the number of records in the HIT.
func (h ClusterHIT) Size() int { return len(h.Records) }

// GeneratePairHITs batches the pairs into ⌈|P|/k⌉ pair-based HITs of at
// most k pairs each, preserving input order (Section 3.1).
func GeneratePairHITs(pairs []record.Pair, k int) ([]PairHIT, error) {
	if k < 1 {
		return nil, fmt.Errorf("hitgen: pair-based HIT size %d must be >= 1", k)
	}
	var hits []PairHIT
	for start := 0; start < len(pairs); start += k {
		end := start + k
		if end > len(pairs) {
			end = len(pairs)
		}
		batch := make([]record.Pair, end-start)
		copy(batch, pairs[start:end])
		hits = append(hits, PairHIT{Pairs: batch})
	}
	return hits, nil
}

// ClusterGenerator is a cluster-based HIT generation strategy: given the
// pairs to verify and the cluster-size threshold k, produce HITs
// satisfying Definition 1 (every HIT has ≤ k records; every pair is
// covered by some HIT).
type ClusterGenerator interface {
	// Name identifies the strategy in experiment output.
	Name() string
	// Generate produces the cluster-based HITs. k must be ≥ 2.
	Generate(pairs []record.Pair, k int) ([]ClusterHIT, error)
}

// Covers checks Definition 1 against the generated HITs — every HIT holds
// at most k records, none twice, and every pair has both endpoints in
// some HIT — and returns each HIT's covered pairs (Section 3.2: "a
// cluster-based HIT allows a pair of records to be matched iff both
// records are in the HIT"). A cover lists its pairs as given, repeats
// kept, in input order: the crowd simulator draws one RNG value per
// covered pair, so the order is part of the output. Pair indices are
// grouped by endpoint once, so the pass costs O(|P| + Σ_HIT Σ_member
// deg(member)) rather than O(#HITs × |P|).
//
// The error names the first violation: an oversized HIT or a duplicate
// record in HIT order, else the first uncovered pair in input order and
// the number of uncovered input pairs.
func Covers(pairs []record.Pair, hits []ClusterHIT, k int) ([][]record.Pair, error) {
	byEnd := make(map[record.ID][]int32)
	for i, p := range pairs {
		byEnd[p.A] = append(byEnd[p.A], int32(i))
		if p.B != p.A {
			byEnd[p.B] = append(byEnd[p.B], int32(i))
		}
	}
	in := make(map[record.ID]int) // record → 1 + the last HIT holding it
	covered := make([]bool, len(pairs))
	out := make([][]record.Pair, len(hits))
	var idx []int32
	for h, hit := range hits {
		if hit.Size() > k {
			return nil, fmt.Errorf("hitgen: HIT %d has %d records, exceeds k=%d", h, hit.Size(), k)
		}
		for _, r := range hit.Records {
			if in[r] == h+1 {
				return nil, fmt.Errorf("hitgen: HIT %d contains duplicate record %d", h, r)
			}
			in[r] = h + 1
		}
		// Each covered pair is collected once, from its A endpoint.
		idx = idx[:0]
		for _, r := range hit.Records {
			for _, i := range byEnd[r] {
				if p := pairs[i]; p.A == r && in[p.B] == h+1 {
					idx = append(idx, i)
				}
			}
		}
		slices.Sort(idx)
		for _, i := range idx {
			out[h] = append(out[h], pairs[i])
			covered[i] = true
		}
	}
	if first := slices.Index(covered, false); first >= 0 {
		n := 0
		for _, c := range covered {
			if !c {
				n++
			}
		}
		p := pairs[first]
		return nil, fmt.Errorf("hitgen: pair %v not covered by any HIT (%d uncovered)", record.MakePair(p.A, p.B), n)
	}
	return out, nil
}

// ValidateCover checks Definition 1's two requirements against the
// generated HITs and returns Covers' error for the first violation, or
// nil. Callers that go on to execute the HITs should call Covers instead
// and keep the covers it returns.
func ValidateCover(pairs []record.Pair, hits []ClusterHIT, k int) error {
	_, err := Covers(pairs, hits, k)
	return err
}

// sortHIT orders the records of a HIT ascending for deterministic output.
func sortHIT(rs []record.ID) []record.ID {
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	return rs
}

// checkK validates the cluster-size threshold shared by all generators. A
// threshold below 2 cannot cover any pair.
func checkK(k int) error {
	if k < 2 {
		return fmt.Errorf("hitgen: cluster-size threshold %d must be >= 2", k)
	}
	return nil
}

// buildGraph constructs the pair graph (Section 4: vertices are records,
// edges are pairs).
func buildGraph(pairs []record.Pair) *graph.Graph {
	return graph.FromPairs(pairs)
}
