package simjoin

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"github.com/crowder/crowder/internal/engine"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/similarity"
)

// joinState is the part of a join index that Index and Sharded share, and
// that a live delta and a recovery replay (Absorb) must build identically:
// the cursor, the frozen token order, the delta's prefixes, the per-record
// probe summaries and the token-less records. Only where the prefixes'
// postings live differs between the two index types.
type joinState struct {
	t    *record.Table
	opts Options

	// n is the number of records already indexed and probed.
	n int
	// weight[tok] is the token's frozen ordering weight (≥ 1), or -1 if
	// the token has not been indexed yet.
	weight []int32
	// summary[j] lets a probe reject candidate j without touching its
	// token array: one contiguous slice, one cache miss per candidate.
	summary []recSummary
	// maxSym[s] bounds |x Δ y| for a qualifying pair with |x|+|y| = s
	// (see growMaxSym).
	maxSym []int32
	// empties lists the records with empty token sets, which pair with
	// each other at likelihood 1 under the empty-set convention.
	empties []int32

	// prefArena backs the delta's prefixes as one flat allocation, read
	// concurrently by probes and reused across deltas.
	prefArena []int32
	prefOffs  []int32
}

// recSummary is a record's token set reduced to 24 bytes: its size and
// a 128-bit xor signature. Every token flips one of 128 bits, so tokens
// two records share cancel in sig_x ^ sig_y and each remaining set bit
// needs at least one token of the symmetric difference:
// popcount(sig_x ^ sig_y) ≤ |x Δ y|.
type recSummary struct {
	sig  [2]uint64
	size int32
}

// sigHashMask is applied to every token's signature hash. It is all
// ones; tests narrow it to force every token onto one signature bit.
var sigHashMask uint64 = math.MaxUint64

// flip xors token tok's signature bit into s: the top seven bits of a
// fixed 64-bit multiplicative hash of the ID pick one of the 128.
func (s *recSummary) flip(tok int32) {
	b := (uint64(uint32(tok)) * 0x9E3779B97F4A7C15 & sigHashMask) >> 57
	s.sig[b>>6] ^= 1 << (b & 63)
}

// summaryRejects reports whether the two summaries alone prove the pair
// is below the threshold: |x Δ y| is at least the size difference and at
// least the signatures' Hamming distance, and maxSym says how large it
// may be. It is a pure upper-bound prune — a pair it lets through is
// still scored by similarity.Jaccard.
func summaryRejects(a, b recSummary, maxSym []int32) bool {
	d := int32(bits.OnesCount64(a.sig[0]^b.sig[0]) + bits.OnesCount64(a.sig[1]^b.sig[1]))
	d = max(d, a.size-b.size, b.size-a.size)
	return d > maxSym[a.size+b.size]
}

// growMaxSym extends maxSym to combined sizes ≤ total. maxSym[s] is the
// largest symmetric difference with which a pair of combined size s can
// still reach the threshold, or -1 if none can. It is tabulated from the
// very expression similarity.Jaccard evaluates — inter = (s−d)/2 shared
// tokens over a union of s−inter — so the bound and the score can never
// disagree about a pair at exactly the threshold.
func (st *joinState) growMaxSym(total int) {
	tau := st.opts.Threshold
	for s := len(st.maxSym); s <= total; s++ {
		// The quotient grows with inter, so the first qualifying
		// overlap is found by bisection.
		inter := sort.Search(s/2+1, func(inter int) bool {
			if union := s - inter; union != 0 {
				return float64(inter)/float64(union) >= tau
			}
			return 1 >= tau
		})
		if inter > s/2 {
			st.maxSym = append(st.maxSym, -1)
		} else {
			st.maxSym = append(st.maxSym, int32(s-2*inter))
		}
	}
}

// prepare opens the delta [lo, n) — n = min(upto, table length) — and
// does everything about it that does not depend on where postings are
// stored: it freezes the ordering weight of tokens first seen in the
// delta (their frequency within it; on a first delta over a whole table
// this is the global frequency order of the batch join), lays the
// records' prefixes under that order out in prefArena, and appends their
// summaries. An empty delta returns lo == n. At a non-positive threshold
// every pair survives and no per-token state is kept; only the cursor
// moves.
func (st *joinState) prepare(upto int) (ids [][]int32, lo, n int) {
	lo, n = st.n, min(upto, st.t.Len())
	if n <= lo {
		return nil, lo, lo
	}
	st.n = n
	ids = st.t.TokenIDs()
	tau := st.opts.Threshold
	if tau <= 0 {
		return ids, lo, n
	}

	// The weight array doubles as the counter: an unindexed token at -1
	// counts down one per delta record holding it, and a second pass
	// flips -1-c to the frozen weight c. Nothing proportional to the
	// universe is allocated or cleared per delta.
	for universe := st.t.TokenUniverse(); len(st.weight) < universe; {
		st.weight = append(st.weight, -1)
	}
	for _, set := range ids[lo:n] {
		for _, tok := range set {
			if w := st.weight[tok]; w < 0 {
				st.weight[tok] = w - 1
			}
		}
	}
	offs := append(st.prefOffs[:0], 0)
	maxSize := 0
	for _, set := range ids[lo:n] {
		for _, tok := range set {
			if w := st.weight[tok]; w < 0 {
				st.weight[tok] = -1 - w
			}
		}
		offs = append(offs, offs[len(offs)-1]+int32(prefixLen(len(set), tau)))
		maxSize = max(maxSize, len(set))
	}
	st.prefOffs = offs
	st.prefArena = slices.Grow(st.prefArena[:0], int(offs[n-lo]))[:offs[n-lo]]
	st.summary = slices.Grow(st.summary, n-lo)[:n]
	st.growMaxSym(2 * maxSize)

	// Each record's prefix is the head of its tokens sorted by (weight,
	// ID); packing both into one integer makes that a plain sort.
	workers := st.opts.workers(n - lo)
	engine.Workers(workers, func(w int) {
		var keys []uint64
		for i := lo + (n-lo)*w/workers; i < lo+(n-lo)*(w+1)/workers; i++ {
			keys = keys[:0]
			sum := recSummary{size: int32(len(ids[i]))}
			for _, tok := range ids[i] {
				keys = append(keys, uint64(st.weight[tok])<<32|uint64(tok))
				sum.flip(tok)
			}
			st.summary[i] = sum
			slices.Sort(keys)
			p := st.pref(i, lo)
			for k := range p {
				p[k] = int32(keys[k])
			}
		}
	})
	return ids, lo, n
}

// pref returns record i's prefix within the delta that started at lo.
func (st *joinState) pref(i, lo int) []int32 {
	return st.prefArena[st.prefOffs[i-lo]:st.prefOffs[i-lo+1]]
}

// probeList is the probe kernel, shared by Index and Sharded: it scans
// the entries j < i of one posting list that record i's prefix hits and
// emits every pair {j, i} that reaches the threshold. Each entry meets
// the summary filter first, which rejects most collisions from two
// contiguous arrays; only a survivor reads and writes the dedup stamp
// (so a pair is scored once however many prefix tokens it shares), is
// checked for source admissibility and is scored by similarity.Jaccard.
// si is summary[i], hoisted by the caller. It returns false when emit
// stopped the scan.
func (st *joinState) probeList(p *PostingList, ids [][]int32, i int, si recSummary, sc *probeScratch, emit func(ScoredPair) bool) bool {
	summary, maxSym, stamp, i32 := st.summary, st.maxSym, sc.stamp, int32(i)
	for b := 0; ; b++ {
		js := p.decodeLess(b, i32, &sc.dbuf)
		for _, j32 := range js {
			if summaryRejects(si, summary[j32], maxSym) || stamp[j32] == i32 {
				continue
			}
			stamp[j32] = i32
			a := record.ID(j32)
			if !st.opts.crossOK(st.t, a, record.ID(i)) {
				continue
			}
			if sim := similarity.Jaccard(ids[i], ids[j32]); sim >= st.opts.Threshold &&
				!emit(ScoredPair{Pair: record.Pair{A: a, B: record.ID(i)}, Likelihood: sim}) {
				return false
			}
		}
		if len(js) < PostingBlockSize {
			return true
		}
	}
}

// pairEmpties records the delta's token-less records and yields their
// pairs with every earlier one: they never collide in any index, but the
// empty-set convention gives them similarity 1 with each other. A nil
// yield (replay) or one that returns false only stops the emission.
func (st *joinState) pairEmpties(ids [][]int32, lo, n int, yield func(ScoredPair) bool) {
	if st.opts.Threshold > 1 {
		return
	}
	for i := lo; i < n; i++ {
		if len(ids[i]) != 0 {
			continue
		}
		for _, j32 := range st.empties {
			a, b := record.ID(j32), record.ID(i)
			if yield != nil && st.opts.crossOK(st.t, a, b) && !yield(ScoredPair{Pair: record.Pair{A: a, B: b}, Likelihood: 1}) {
				yield = nil
			}
		}
		st.empties = append(st.empties, int32(i))
	}
}
