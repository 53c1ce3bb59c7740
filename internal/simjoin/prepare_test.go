package simjoin

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/similarity"
)

// summarize builds a set's probe summary the way prepare does.
func summarize(set []int32) recSummary {
	s := recSummary{size: int32(len(set))}
	for _, tok := range set {
		s.sig ^= sigBit(tok)
	}
	return s
}

// seqSet returns the sorted set {from, from+1, …, from+n−1}.
func seqSet(from, n int) []int32 {
	set := make([]int32, n)
	for k := range set {
		set[k] = int32(from + k)
	}
	return set
}

// The summary filter is a pure upper-bound prune: whenever it rejects a
// pair, similarity.Jaccard scores the pair below the threshold — also
// for pairs at exactly the threshold, where a bound computed any other
// way than Jaccard's own quotient could disagree in the last bit.
func TestSummaryFilterSound(t *testing.T) {
	taus := []float64{0.05, 0.1, 0.2, 0.25, 0.3, 1.0 / 3, 0.4, 0.5, 0.6, 2.0 / 3, 0.7, 0.75, 0.8, 0.9, 1, 1.5}
	check := func(st *joinState, a, b []int32) {
		t.Helper()
		st.growMaxSym(len(a) + len(b))
		rejected := summaryRejects(summarize(a), summarize(b), st.maxSym)
		if sim := similarity.Jaccard(a, b); rejected && sim >= st.opts.Threshold {
			t.Fatalf("tau=%v: summaries reject %v / %v, but Jaccard = %v", st.opts.Threshold, a, b, sim)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, tau := range taus {
		st := &joinState{opts: Options{Threshold: tau}}

		// Exact-threshold shapes: |a ∩ b| = inter of |a ∪ b| = union for
		// every small quotient — 6/10 at 0.6 is every two-token ScaleN
		// duplicate, 4/5 at 0.8 the prefix-length regression, 1/1
		// identical sets, 0/0 empty against empty.
		for union := 0; union <= 24; union++ {
			for inter := 0; inter <= union; inter++ {
				for onlyA := 0; onlyA <= union-inter; onlyA++ {
					a := append(seqSet(0, inter), seqSet(100, onlyA)...)
					b := append(seqSet(0, inter), seqSet(200, union-inter-onlyA)...)
					check(st, a, b)
				}
			}
		}

		// Random sorted sets over a vocabulary small enough that
		// overlaps of every size occur.
		for trial := 0; trial < 4000; trial++ {
			draw := func() []int32 {
				var set []int32
				for tok := int32(0); tok < 40; tok++ {
					if rng.Intn(3) == 0 {
						set = append(set, tok*7919)
					}
				}
				return set
			}
			check(st, draw(), draw())
		}
	}

	// The bound is not vacuous: at 0.6 two disjoint eight-token records
	// are rejected unseen, and an exact 6/10 pair is let through.
	st := &joinState{opts: Options{Threshold: 0.6}}
	st.growMaxSym(16)
	if a, b := seqSet(0, 8), seqSet(50, 8); !summaryRejects(summarize(a), summarize(b), st.maxSym) {
		t.Error("disjoint 8-token sets pass the summary filter at tau 0.6")
	}
	if a, b := seqSet(0, 8), append(seqSet(0, 6), 90, 91); summaryRejects(summarize(a), summarize(b), st.maxSym) {
		t.Error("a 6/10 pair is rejected at tau 0.6")
	}
}

// A long session reallocates its dedup stamp arrays O(log n) times, not
// once per delta: capacity grows geometrically.
func TestStampGrowsGeometrically(t *testing.T) {
	const deltas, perDelta = 50, 40
	row := func(i int) string { return fmt.Sprintf("a%d b%d c%d", i%50, i%77, i) }
	countGrowth := func(caps []int) int {
		grew := 0
		for d := 1; d < len(caps); d++ {
			if caps[d] != caps[d-1] {
				grew++
			}
		}
		return grew
	}

	tab := record.NewTable("text")
	ix := NewIndex(tab, Options{Threshold: 0.3, Parallelism: 1})
	stab := record.NewTable("text")
	sx := NewSharded(stab, 2, Options{Threshold: 0.3, Parallelism: 1})
	var caps, shardCaps []int
	for d := 0; d < deltas; d++ {
		for k := 0; k < perDelta; k++ {
			tab.Append(row(d*perDelta + k))
			stab.Append(row(d*perDelta + k))
		}
		ix.Update()
		drainScatter(sx)
		caps = append(caps, cap(ix.scratch[0].stamp))
		shardCaps = append(shardCaps, cap(sx.shards[0].stamp))
	}
	// 50 deltas from 40 to 2000 records: doubling would reallocate ~6
	// times, the runtime's growth policy a few more.
	for name, c := range map[string][]int{"index": caps, "shard": shardCaps} {
		if c[deltas-1] < deltas*perDelta {
			t.Fatalf("%s stamp covers %d records; want %d", name, c[deltas-1], deltas*perDelta)
		}
		if grew := countGrowth(c); grew > 12 {
			t.Errorf("%s stamp reallocated %d times over %d deltas; want O(log n)", name, grew, deltas)
		}
	}
}
