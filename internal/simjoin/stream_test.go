package simjoin

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/crowder/crowder/internal/engine"
	"github.com/crowder/crowder/internal/record"
)

// randomStreamTable builds a table of nRec rows over a small vocabulary
// (high collision rates, occasional empty rows) with optional source tags.
func randomStreamTable(rng *rand.Rand, nRec int, cross bool) *record.Table {
	vocab := []string{"alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta", "iota", "kappa"}
	t := record.NewTable("text")
	for i := 0; i < nRec; i++ {
		k := rng.Intn(8)
		toks := make([]string, k)
		for j := range toks {
			toks[j] = vocab[rng.Intn(len(vocab))]
		}
		row := strings.Join(toks, " ")
		if cross {
			t.AppendFrom(rng.Intn(2), row)
		} else {
			t.Append(row)
		}
	}
	return t
}

// TestUpdateSeqDrainedEqualsUpdate is the streaming-equivalence property
// test: across random tables, thresholds, parallelism levels and batch
// splits, draining UpdateSeq and canonically ranking the stream equals
// the materialized Update output bit-for-bit — same pairs, same
// likelihoods, same order.
func TestUpdateSeqDrainedEqualsUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	taus := []float64{0, 0.01, 0.3, 0.5, 0.8, 1}
	for trial := 0; trial < 60; trial++ {
		nRec := 2 + rng.Intn(60)
		tau := taus[rng.Intn(len(taus))]
		cross := rng.Intn(2) == 0
		par := 1 + rng.Intn(4)
		split := rng.Intn(nRec + 1)
		opts := Options{Threshold: tau, CrossSourceOnly: cross, Parallelism: par}
		name := fmt.Sprintf("trial=%d n=%d tau=%v cross=%v par=%d split=%d", trial, nRec, tau, cross, par, split)

		src := randomStreamTable(rng, nRec, cross)
		copyInto := func(dst *record.Table, lo, hi int) {
			for i := lo; i < hi; i++ {
				if cross {
					dst.AppendFrom(src.Source[i], src.Records[i].Values...)
				} else {
					dst.Append(src.Records[i].Values...)
				}
			}
		}

		// Materialized path: Update per delta.
		tabA := record.NewTable("text")
		ixA := NewIndex(tabA, opts)
		var wantAll [][]ScoredPair
		for _, hi := range []int{split, nRec} {
			copyInto(tabA, tabA.Len(), hi)
			wantAll = append(wantAll, ixA.Update())
		}

		// Streaming path: drain UpdateSeq per delta, rank with the same
		// total order the resolver's heap uses.
		tabB := record.NewTable("text")
		ixB := NewIndex(tabB, opts)
		for di, hi := range []int{split, nRec} {
			copyInto(tabB, tabB.Len(), hi)
			var got []ScoredPair
			for sp := range ixB.UpdateSeq() {
				got = append(got, sp)
			}
			SortScored(got)
			want := wantAll[di]
			if len(got) != len(want) {
				t.Fatalf("%s delta %d: stream %d pairs, materialized %d", name, di, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s delta %d pair %d: stream %+v vs materialized %+v", name, di, i, got[i], want[i])
				}
			}
		}
	}
}

// TestUpdateSeqTopKEqualsTruncatedUpdate checks the bounded consumer: a
// top-K heap fed from the stream must produce exactly the first K entries
// of the materialized, canonically sorted output — at every parallelism
// level, despite the stream's nondeterministic emission order.
func TestUpdateSeqTopKEqualsTruncatedUpdate(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		nRec := 10 + rng.Intn(80)
		k := 1 + rng.Intn(20)
		par := 1 + rng.Intn(4)
		opts := Options{Threshold: 0.2, Parallelism: par}

		src := randomStreamTable(rng, nRec, false)
		tabA := record.NewTable("text")
		ixA := NewIndex(tabA, opts)
		for i := 0; i < nRec; i++ {
			tabA.Append(src.Records[i].Values...)
		}
		want := ixA.Update()
		if len(want) > k {
			want = want[:k]
		}

		tabB := record.NewTable("text")
		ixB := NewIndex(tabB, opts)
		for i := 0; i < nRec; i++ {
			tabB.Append(src.Records[i].Values...)
		}
		rank := engine.NewTopK(k, CompareScored)
		for sp := range ixB.UpdateSeq() {
			rank.Push(sp)
		}
		got := rank.Ranked()
		if len(got) != len(want) {
			t.Fatalf("trial %d k=%d par=%d: heap %d pairs, truncated sort %d", trial, k, par, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d k=%d par=%d pair %d: heap %+v vs truncated %+v", trial, k, par, i, got[i], want[i])
			}
		}
	}
}

// TestUpdateSeqEarlyBreak verifies that abandoning the stream mid-delta
// is safe (parallel workers are cancelled, no goroutine leak blocks the
// next call) and absorbs the delta: a subsequent Update sees no new
// records and returns nil.
func TestUpdateSeqEarlyBreak(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, par := range []int{1, 4} {
		tab := randomStreamTable(rng, 60, false)
		ix := NewIndex(tab, Options{Threshold: 0.1, Parallelism: par})
		n := 0
		for range ix.UpdateSeq() {
			n++
			if n == 3 {
				break
			}
		}
		if n != 3 {
			t.Fatalf("par=%d: yielded %d pairs before break", par, n)
		}
		if got := ix.Update(); got != nil {
			t.Fatalf("par=%d: Update after abandoned stream returned %d pairs, want nil", par, len(got))
		}
		if ix.Indexed() != tab.Len() {
			t.Fatalf("par=%d: Indexed=%d want %d", par, ix.Indexed(), tab.Len())
		}
	}

	// An abandoned delta still remembers its token-less records (as
	// Absorb does), so a later empty record pairs with them.
	for _, par := range []int{1, 4} {
		tab := record.NewTable("text")
		for _, v := range []string{"alpha beta", "alpha beta", "", "--"} {
			tab.Append(v)
		}
		ix := NewIndex(tab, Options{Threshold: 0.5, Parallelism: par})
		for range ix.UpdateSeq() {
			break // the first pair: {0,1} or {2,3}
		}
		tab.Append("!?")
		want := []ScoredPair{
			{Pair: record.Pair{A: 2, B: 4}, Likelihood: 1},
			{Pair: record.Pair{A: 3, B: 4}, Likelihood: 1},
		}
		if got := ix.Update(); !slices.Equal(got, want) {
			t.Fatalf("par=%d: empty record after abandoned stream paired as %+v, want %+v", par, got, want)
		}
	}
}

// TestIndexScratchReuseAcrossUpdates drives many small deltas through one
// index and checks correctness end-to-end: pooled stamp arrays carry
// stale values from earlier deltas, which must never suppress or
// duplicate a candidate.
func TestIndexScratchReuseAcrossUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, par := range []int{1, 3} {
		src := randomStreamTable(rng, 90, false)
		opts := Options{Threshold: 0.4, Parallelism: par}

		batchTab := record.NewTable("text")
		for i := 0; i < src.Len(); i++ {
			batchTab.Append(src.Records[i].Values...)
		}
		want := Join(batchTab, opts)

		deltaTab := record.NewTable("text")
		ix := NewIndex(deltaTab, opts)
		var union []ScoredPair
		for lo := 0; lo < src.Len(); lo += 10 {
			for i := lo; i < lo+10 && i < src.Len(); i++ {
				deltaTab.Append(src.Records[i].Values...)
			}
			union = append(union, ix.Update()...)
		}
		SortScored(union)
		if len(union) != len(want) {
			t.Fatalf("par=%d: union %d pairs, batch %d", par, len(union), len(want))
		}
		for i := range want {
			if union[i] != want[i] {
				t.Fatalf("par=%d pair %d: %+v vs %+v", par, i, union[i], want[i])
			}
		}
	}
}
