package hitgen

import (
	"slices"

	"github.com/crowder/crowder/internal/graph"
	"github.com/crowder/crowder/internal/record"
)

// Approx is the (k/2 + k/(k−1))-approximation algorithm for the k-clique
// edge covering problem from Goldschmidt et al., as described in Section 4.
//
// Phase 1 builds a sequence SEQ of all vertices and edges: it repeatedly
// selects a vertex, appends the vertex and its currently incident edges to
// SEQ, and removes them from the graph. Phase 2 splits SEQ into windows of
// k−1 consecutive elements; the edges inside a window touch at most k
// distinct vertices, so each window yields one cluster-based HIT.
//
// As the paper notes, the algorithm ignores connectivity entirely ("it
// simply adds a random vertex and its corresponding edges into SEQ"), which
// is why it underperforms even naive baselines on real data (Section 7.2).
type Approx struct{}

// Name implements ClusterGenerator.
func (Approx) Name() string { return "Approximation" }

// Generate implements ClusterGenerator.
func (Approx) Generate(pairs []record.Pair, k int) ([]ClusterHIT, error) {
	if err := checkInput(pairs, k); err != nil {
		return nil, err
	}
	g := graph.FromPairs(pairs)

	// Phase 1: build SEQ. The paper's Phase 1 selects vertices in arbitrary
	// order; we take ascending ID order for determinism (the approximation
	// guarantee is order-independent). Selecting v removes its edges, so
	// the edges v still has are those to later vertices. An element is a
	// vertex {v, v} or an edge {v, u}.
	// Vertices whose edges were all consumed by earlier neighbors still
	// enter SEQ as bare vertex elements, matching the paper's "all the
	// vertices and edges" accounting (Example 2 counts nine vertex
	// elements alongside the ten edges).
	var seq [][2]int32
	for v := range int32(len(g.IDs())) {
		seq = append(seq, [2]int32{v, v})
		nbrs, _ := g.Row(v)
		for _, u := range nbrs {
			if u > v {
				seq = append(seq, [2]int32{v, u})
			}
		}
	}

	// Phase 2: windows of k−1 consecutive elements, one HIT per window.
	// Example 2: |SEQ| = 19 with k = 4 gives ⌈19/3⌉ = 7 HITs.
	var hits []ClusterHIT
	for start := 0; start < len(seq); start += k - 1 {
		var members []int32
		for _, el := range seq[start:min(start+k-1, len(seq))] {
			members = append(members, el[0], el[1])
		}
		slices.Sort(members)
		hits = append(hits, ClusterHIT{Records: recordsOf(g.IDs(), slices.Compact(members))})
	}
	return hits, nil
}
