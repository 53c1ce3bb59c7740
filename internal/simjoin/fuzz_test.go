package simjoin

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/crowder/crowder/internal/record"
)

// FuzzIndexDeltaEquivalence fuzzes the incremental join index's core
// invariant: for any table, threshold and batch split, the union of
// Update() deltas equals the one-shot batch Join of the final table —
// every qualifying pair exactly once, with the same likelihood. It also
// pins the streaming path to the materialized one: a second index driven
// through UpdateSeq (at a parallelism level derived from the fuzz input)
// must, once drained and canonically ranked, be bit-identical to the
// Update() deltas. A sharded index (shard count also derived from the
// fuzz input) driven through UpdateScatter over the same batches must
// scatter exactly the same multiset of pairs across its shards. Last, a
// recovery replay: an index that Absorbs the first batch and Updates the
// rest as one delta must emit exactly the batch join's pairs with an
// endpoint past the absorbed prefix — Absorb has to leave behind
// everything a later probe reads.
//
// The fuzz inputs drive a deterministic generator (random tables over a
// small token vocabulary, so collisions, empty records, duplicate rows
// and source tags all occur) rather than being parsed as table content
// directly: every byte pattern is a valid case, and shrinking stays
// meaningful. Run the stored corpus as part of the normal test suite, or
// explore with
//
//	go test -fuzz FuzzIndexDeltaEquivalence ./internal/simjoin
func FuzzIndexDeltaEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(20), uint8(50), uint8(7), false)
	f.Add(int64(2), uint8(3), uint8(0), uint8(1), false)    // threshold 0: the all-pairs path
	f.Add(int64(3), uint8(40), uint8(100), uint8(13), true) // threshold 1 + cross-source
	f.Add(int64(4), uint8(9), uint8(80), uint8(128), false)
	f.Add(int64(5), uint8(2), uint8(33), uint8(255), true)
	f.Fuzz(func(t *testing.T, seed int64, n, tauByte, splitByte uint8, cross bool) {
		rng := rand.New(rand.NewSource(seed))
		nRec := int(n%48) + 2
		tau := float64(tauByte%101) / 100

		// Random rows over a tiny vocabulary: high collision rates stress
		// the prefix index, and k = 0 produces empty token sets (the
		// likelihood-1 empty-set convention).
		vocab := []string{"alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"}
		rows := make([]string, nRec)
		sources := make([]int, nRec)
		for i := range rows {
			k := rng.Intn(7)
			toks := make([]string, k)
			for j := range toks {
				toks[j] = vocab[rng.Intn(len(vocab))]
			}
			rows[i] = strings.Join(toks, " ")
			sources[i] = rng.Intn(2)
		}
		opts := Options{Threshold: tau, CrossSourceOnly: cross, Parallelism: 1}
		appendRow := func(tab *record.Table, i int) {
			if cross {
				tab.AppendFrom(sources[i], rows[i])
			} else {
				tab.Append(rows[i])
			}
		}

		// Batch: one-shot join of the full table.
		batchTab := record.NewTable("text")
		for i := range rows {
			appendRow(batchTab, i)
		}
		batch := Join(batchTab, opts)

		// Incremental: the same rows in three batches split at positions
		// derived from splitByte, each followed by an Update.
		s1 := int(splitByte) % (nRec + 1)
		s2 := s1 + int(splitByte/3)%(nRec-s1+1)
		deltaTab := record.NewTable("text")
		ix := NewIndex(deltaTab, opts)
		var union []ScoredPair
		for _, hi := range []int{s1, s2, nRec} {
			for i := deltaTab.Len(); i < hi; i++ {
				appendRow(deltaTab, i)
			}
			union = append(union, ix.Update()...)
		}

		// Streaming: same deltas through UpdateSeq, possibly parallel.
		streamOpts := opts
		streamOpts.Parallelism = 1 + int(tauByte%3)
		streamTab := record.NewTable("text")
		six := NewIndex(streamTab, streamOpts)
		var streamed []ScoredPair
		for _, hi := range []int{s1, s2, nRec} {
			for i := streamTab.Len(); i < hi; i++ {
				appendRow(streamTab, i)
			}
			for sp := range six.UpdateSeq() {
				streamed = append(streamed, sp)
			}
		}

		// Sharded: same deltas scattered across per-shard indexes. The
		// sink runs concurrently but serially per shard, so per-shard
		// accumulators indexed by the tag need no locks.
		shards := 1 + int(splitByte)%4
		shardTab := record.NewTable("text")
		shx := NewSharded(shardTab, shards, streamOpts)
		perShard := make([][]ScoredPair, shards)
		for _, hi := range []int{s1, s2, nRec} {
			for i := shardTab.Len(); i < hi; i++ {
				appendRow(shardTab, i)
			}
			shx.UpdateScatter(func(shard int, sp ScoredPair) bool {
				perShard[shard] = append(perShard[shard], sp)
				return true
			})
		}
		var scattered []ScoredPair
		for _, list := range perShard {
			scattered = append(scattered, list...)
		}

		// Replay: absorb [0, s1) silently, then one delta over the rest.
		var wantTail []ScoredPair
		for _, sp := range batch {
			if int(sp.Pair.B) >= s1 {
				wantTail = append(wantTail, sp)
			}
		}
		rix := NewIndex(batchTab, streamOpts)
		rix.Absorb(s1)
		got := rix.Update()
		if rix.Indexed() != nRec {
			t.Fatalf("replayed index covers %d of %d records", rix.Indexed(), nRec)
		}
		if len(got) != len(wantTail) {
			t.Fatalf("absorbed to %d then updated: %d pairs, want %d (n=%d tau=%v cross=%v)",
				s1, len(got), len(wantTail), nRec, tau, cross)
		}
		for i := range wantTail {
			if got[i] != wantTail[i] {
				t.Fatalf("absorbed to %d then updated: pair %d is %+v, want %+v (n=%d tau=%v cross=%v)",
					s1, i, got[i], wantTail[i], nRec, tau, cross)
			}
		}

		SortScored(batch)
		SortScored(union)
		SortScored(streamed)
		SortScored(scattered)
		if len(scattered) != len(union) {
			t.Fatalf("sharded deltas have %d pairs, materialized deltas %d (n=%d tau=%v splits=%d,%d cross=%v shards=%d)",
				len(scattered), len(union), nRec, tau, s1, s2, cross, shards)
		}
		for i := range union {
			if scattered[i] != union[i] {
				t.Fatalf("sharded pair %d differs: %+v vs %+v (n=%d tau=%v splits=%d,%d cross=%v shards=%d)",
					i, scattered[i], union[i], nRec, tau, s1, s2, cross, shards)
			}
		}
		if len(streamed) != len(union) {
			t.Fatalf("streamed deltas have %d pairs, materialized deltas %d (n=%d tau=%v splits=%d,%d cross=%v par=%d)",
				len(streamed), len(union), nRec, tau, s1, s2, cross, streamOpts.Parallelism)
		}
		for i := range union {
			if streamed[i] != union[i] {
				t.Fatalf("streamed pair %d differs: %+v vs %+v (n=%d tau=%v splits=%d,%d cross=%v par=%d)",
					i, streamed[i], union[i], nRec, tau, s1, s2, cross, streamOpts.Parallelism)
			}
		}
		if len(batch) != len(union) {
			t.Fatalf("union of deltas has %d pairs, batch join %d (n=%d tau=%v splits=%d,%d cross=%v)",
				len(union), len(batch), nRec, tau, s1, s2, cross)
		}
		for i := range batch {
			if batch[i] != union[i] {
				t.Fatalf("pair %d differs: delta %+v vs batch %+v (n=%d tau=%v splits=%d,%d cross=%v)",
					i, union[i], batch[i], nRec, tau, s1, s2, cross)
			}
		}
	})
}
