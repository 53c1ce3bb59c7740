package hitgen

import (
	"math/rand"
	"slices"

	"github.com/crowder/crowder/internal/graph"
	"github.com/crowder/crowder/internal/record"
)

// Random is the naive baseline of Section 7.2: it repeatedly selects a
// random pair from P and merges its two records into the HIT under
// construction; when the HIT reaches k records it is emitted and all pairs
// it covers are removed from P.
type Random struct {
	// Seed makes runs reproducible; the same seed yields the same HITs.
	Seed int64
}

// Name implements ClusterGenerator.
func (Random) Name() string { return "Random" }

// Generate implements ClusterGenerator.
func (g Random) Generate(pairs []record.Pair, k int) ([]ClusterHIT, error) {
	if err := checkInput(pairs, k); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(g.Seed))
	// The sweep runs over vertex indices; the positions of remaining
	// match the input's, so the RNG draws are those of the pair list.
	ids, ends := graph.Renumber(pairs)
	remaining := make([][2]int32, len(pairs))
	for i := range remaining {
		remaining[i] = [2]int32{ends[2*i], ends[2*i+1]}
	}
	members := make([]bool, len(ids))

	var hits []ClusterHIT
	for len(remaining) > 0 {
		// Fill the HIT by scanning a lazily generated random permutation of
		// the remaining pairs (Fisher–Yates as we go). A pair is merged
		// only if it fits within the k-record budget; pairs that do not fit
		// stay for later HITs, so termination is guaranteed (the first pair
		// examined always fits since k >= 2).
		var hit []int32
		for i := 0; i < len(remaining) && len(hit) < k; i++ {
			j := i + rng.Intn(len(remaining)-i)
			remaining[i], remaining[j] = remaining[j], remaining[i]
			add := 0
			for _, r := range remaining[i] {
				if !members[r] {
					add++
				}
			}
			if len(hit)+add > k {
				continue
			}
			for _, r := range remaining[i] {
				if !members[r] {
					members[r] = true
					hit = append(hit, r)
				}
			}
		}
		slices.Sort(hit)
		hits = append(hits, ClusterHIT{Records: recordsOf(ids, hit)})

		// Remove every pair covered by this HIT and reset membership.
		next := remaining[:0]
		for _, p := range remaining {
			if !(members[p[0]] && members[p[1]]) {
				next = append(next, p)
			}
		}
		remaining = next
		for _, r := range hit {
			members[r] = false
		}
	}
	return hits, nil
}

// BFS is the breadth-first baseline of Section 7.2: it builds the pair
// graph and fills each HIT with the first k vertices of a BFS traversal of
// the remaining graph, then removes the covered edges and repeats.
type BFS struct{}

// Name implements ClusterGenerator.
func (BFS) Name() string { return "BFS-based" }

// Generate implements ClusterGenerator.
func (BFS) Generate(pairs []record.Pair, k int) ([]ClusterHIT, error) {
	if err := checkInput(pairs, k); err != nil {
		return nil, err
	}
	return traversalGenerate(pairs, k, true)
}

// DFS is the depth-first baseline of Section 7.2, identical to BFS but
// using depth-first traversal order.
type DFS struct{}

// Name implements ClusterGenerator.
func (DFS) Name() string { return "DFS-based" }

// Generate implements ClusterGenerator.
func (DFS) Generate(pairs []record.Pair, k int) ([]ClusterHIT, error) {
	if err := checkInput(pairs, k); err != nil {
		return nil, err
	}
	return traversalGenerate(pairs, k, false)
}

func traversalGenerate(pairs []record.Pair, k int, bfs bool) ([]ClusterHIT, error) {
	g := graph.FromPairs(pairs)
	prefix := g.DFSPrefix
	if bfs {
		prefix = g.BFSPrefix
	}
	var hits []ClusterHIT
	for g.NumEdges() > 0 {
		members := prefix(k)
		slices.Sort(members)
		hits = append(hits, ClusterHIT{Records: recordsOf(g.IDs(), members)})
		g.Peel(members)
	}
	return hits, nil
}
