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
// records are in the HIT"), and the same covers as indices into pairs.
// A cover lists its pairs as given, repeats kept, in input order: the
// crowd simulator draws one RNG value per covered pair, so the order is
// part of the output. Pair indices are
// grouped by A endpoint once, on the pair graph's renumbering, so the pass
// costs O(|P| + Σ_HIT Σ_member (log V + deg(member))) rather than
// O(#HITs × |P|).
//
// The error names the first violation: an oversized HIT or a duplicate
// record in HIT order, else the first uncovered pair in input order and
// the number of uncovered input pairs.
func Covers(pairs []record.Pair, hits []ClusterHIT, k int) ([][]record.Pair, [][]int32, error) {
	// Row v of the endpoint index lists, ascending, the pairs whose A
	// endpoint is vertex v: each covered pair is collected once, from A.
	ids, ends := graph.Renumber(pairs)
	start := make([]int32, len(ids)+1)
	for i := 0; i < len(ends); i += 2 {
		start[ends[i]+1]++
	}
	for v := range ids {
		start[v+1] += start[v]
	}
	byA := make([]int32, len(pairs))
	fill := slices.Clone(start[:len(ids)])
	for i := range pairs {
		byA[fill[ends[2*i]]] = int32(i)
		fill[ends[2*i]]++
	}
	in := make([]int32, len(ids)) // vertex → 1 + the last HIT holding it
	other := map[record.ID]int{}  // the same for records no pair mentions
	covered := make([]bool, len(pairs))
	bounds := make([]int, len(hits)+1) // HIT h's indices are idx[bounds[h]:bounds[h+1]]
	var vs, idx []int32
	for h, hit := range hits {
		if hit.Size() > k {
			return nil, nil, fmt.Errorf("hitgen: HIT %d has %d records, exceeds k=%d", h, hit.Size(), k)
		}
		stamp := int32(h + 1)
		vs = vs[:0]
		for _, r := range hit.Records {
			v, ok := slices.BinarySearch(ids, r)
			switch {
			case !ok && other[r] != h+1:
				other[r] = h + 1
			case ok && in[v] != stamp:
				in[v] = stamp
				vs = append(vs, int32(v))
			default:
				return nil, nil, fmt.Errorf("hitgen: HIT %d contains duplicate record %d", h, r)
			}
		}
		for _, v := range vs {
			for _, i := range byA[start[v]:start[v+1]] {
				if in[ends[2*i+1]] == stamp {
					idx = append(idx, i)
				}
			}
		}
		slices.Sort(idx[bounds[h]:])
		for _, i := range idx[bounds[h]:] {
			covered[i] = true
		}
		bounds[h+1] = len(idx)
	}
	if first := slices.Index(covered, false); first >= 0 {
		n := 0
		for _, c := range covered {
			if !c {
				n++
			}
		}
		p := pairs[first]
		return nil, nil, fmt.Errorf("hitgen: pair %v not covered by any HIT (%d uncovered)", record.MakePair(p.A, p.B), n)
	}
	flat := make([]record.Pair, len(idx))
	for j, i := range idx {
		flat[j] = pairs[i]
	}
	covers, slots := make([][]record.Pair, len(hits)), make([][]int32, len(hits))
	for h := range hits {
		if lo, hi := bounds[h], bounds[h+1]; lo < hi {
			covers[h], slots[h] = flat[lo:hi:hi], idx[lo:hi:hi]
		}
	}
	return covers, slots, nil
}

// ValidateCover checks Definition 1's two requirements against the
// generated HITs and returns Covers' error for the first violation, or
// nil. Callers that go on to execute the HITs should call Covers instead
// and keep the covers it returns.
func ValidateCover(pairs []record.Pair, hits []ClusterHIT, k int) error {
	_, _, err := Covers(pairs, hits, k)
	return err
}

// recordsOf maps vertex indices to record IDs.
func recordsOf(ids []record.ID, vs []int32) []record.ID {
	out := make([]record.ID, len(vs))
	for i, v := range vs {
		out[i] = ids[v]
	}
	return out
}

// checkInput validates what every generator requires: a cluster-size
// threshold of at least 2, below which no pair can be covered, and no
// self-loop, which no cluster-based HIT can check.
func checkInput(pairs []record.Pair, k int) error {
	if k < 2 {
		return fmt.Errorf("hitgen: cluster-size threshold %d must be >= 2", k)
	}
	for _, p := range pairs {
		if p.A == p.B {
			return fmt.Errorf("hitgen: pair %v is a self-loop: a record cannot be compared with itself", p)
		}
	}
	return nil
}
