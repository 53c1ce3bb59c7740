package simjoin

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/similarity"
)

// summarize builds a set's probe summary the way prepare does.
func summarize(set []int32) recSummary {
	s := recSummary{size: int32(len(set))}
	for _, tok := range set {
		s.flip(tok)
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

// The 128-bit signature keeps the filter exact: the signatures' Hamming
// distance never exceeds |x Δ y|, so summaryRejects never rejects a
// pair with Jaccard ≥ τ. The sets are near-duplicates over a wide ID
// range, so pairs straddle every threshold and tokens land on both
// signature words.
func TestSummary128Sound(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	words := [2]bool{}
	for _, tau := range []float64{0.3, 0.4, 0.5, 0.8, 1.0} {
		st := &joinState{opts: Options{Threshold: tau}}
		rejected := 0
		for trial := 0; trial < 20000; trial++ {
			set := map[int32]bool{}
			for k := 1 + rng.Intn(40); k > 0; k-- {
				set[rng.Int31n(1<<20)] = true
			}
			var a, b []int32
			for tok := range set {
				if rng.Intn(8) != 0 {
					a = append(a, tok)
				}
				if rng.Intn(8) != 0 {
					b = append(b, tok)
				}
			}
			for k := rng.Intn(4); k > 0; k-- {
				b = append(b, rng.Int31n(1<<20)+1<<20)
			}
			slices.Sort(a)
			slices.Sort(b)
			sa, sb := summarize(a), summarize(b)
			words[0] = words[0] || sa.sig[0] != 0
			words[1] = words[1] || sa.sig[1] != 0
			inter := similarity.IntersectSize(a, b)
			if d := bits.OnesCount64(sa.sig[0]^sb.sig[0]) + bits.OnesCount64(sa.sig[1]^sb.sig[1]); d > len(a)+len(b)-2*inter {
				t.Fatalf("Hamming distance %d exceeds |x Δ y| = %d", d, len(a)+len(b)-2*inter)
			}
			st.growMaxSym(len(a) + len(b))
			if summaryRejects(sa, sb, st.maxSym) {
				rejected++
				if sim := similarity.Jaccard(a, b); sim >= tau {
					t.Fatalf("tau=%v: summaries reject a pair at Jaccard %v", tau, sim)
				}
			}
		}
		if rejected == 0 {
			t.Errorf("tau=%v: the filter rejected nothing", tau)
		}
	}
	if !words[0] || !words[1] {
		t.Errorf("signature words in use: %v; want both", words)
	}
}

// narrowSig masks every token's signature hash with mask until the test
// ends.
func narrowSig(t *testing.T, mask uint64) {
	old := sigHashMask
	sigHashMask = mask
	t.Cleanup(func() { sigHashMask = old })
}

// With every token forced onto one signature bit the signature is a
// parity bit and the filter leans on the size bound alone; Index and
// Sharded must still find exactly the brute-force pairs, in one batch
// and over deltas.
func TestJoinWithCollidingSignatures(t *testing.T) {
	narrowSig(t, 0)
	rng := rand.New(rand.NewSource(7))
	for _, tau := range []float64{0.3, 0.4, 0.5, 0.8, 1.0} {
		full := randomShardTable(rng, 80, false)
		n := full.Len()
		want := BruteForce(full, Options{Threshold: tau})
		for _, split := range [][]int{{n}, {25, 30, n - 55}} {
			opts := Options{Threshold: tau, Parallelism: 2}
			tab, stab := record.NewTable("text"), record.NewTable("text")
			ix, sx := NewIndex(tab, opts), NewSharded(stab, 3, opts)
			var got, sgot []ScoredPair
			next := 0
			for _, size := range split {
				for ; size > 0; size-- {
					tab.Append(full.Records[next].Values...)
					stab.Append(full.Records[next].Values...)
					next++
				}
				got = append(got, ix.Update()...)
				sgot = append(sgot, drainScatter(sx)...)
			}
			for _, sum := range ix.summary {
				if sum.sig[0]&^1 != 0 || sum.sig[1] != 0 {
					t.Fatalf("signature %x uses more than bit 0 under a zero mask", sum.sig)
				}
			}
			SortScored(got)
			SortScored(sgot)
			label := fmt.Sprintf("tau %v split %v", tau, split)
			assertSamePairs(t, label+" index", want, got)
			assertSamePairs(t, label+" sharded", want, sgot)
		}
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
