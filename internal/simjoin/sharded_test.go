package simjoin

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/crowder/crowder/internal/record"
)

// randomTable builds a table of n rows over a tiny vocabulary, with
// source tags when cross is set — the same generator shape the fuzz
// harness uses, so the sharded tests stress collisions and empties.
func randomShardTable(rng *rand.Rand, n int, cross bool) *record.Table {
	vocab := []string{"alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"}
	tab := record.NewTable("text")
	for i := 0; i < n; i++ {
		k := rng.Intn(7)
		toks := make([]string, k)
		for j := range toks {
			toks[j] = vocab[rng.Intn(len(vocab))]
		}
		row := strings.Join(toks, " ")
		if cross {
			tab.AppendFrom(rng.Intn(2), row)
		} else {
			tab.Append(row)
		}
	}
	return tab
}

// drainScatter collects one UpdateScatter pass into per-shard slices and
// returns their canonically sorted union.
func drainScatter(sx *Sharded) []ScoredPair {
	perShard := make([][]ScoredPair, len(sx.shards))
	sx.UpdateScatter(func(s int, sp ScoredPair) bool {
		perShard[s] = append(perShard[s], sp)
		return true
	})
	var out []ScoredPair
	for _, l := range perShard {
		out = append(out, l...)
	}
	SortScored(out)
	return out
}

// TestShardedMatchesIndex pins the tentpole invariant: at every shard
// count, parallelism level, threshold and batch split, the union of the
// sharded scatter streams is bit-identical to the single-index join.
func TestShardedMatchesIndex(t *testing.T) {
	cases := []struct {
		tau   float64
		cross bool
	}{
		{0, false},   // all-pairs path
		{0.3, false}, // prefix-filtered
		{0.3, true},  // cross-source only
		{0.7, false}, // aggressive pruning
		{1.0, false}, // exact-set matches and the empty-set convention
		{1.5, false}, // above 1: empties no longer pair
	}
	for _, tc := range cases {
		for _, shards := range []int{1, 2, 4, 8} {
			for _, par := range []int{1, 3} {
				name := fmt.Sprintf("tau=%v/cross=%v/shards=%d/par=%d", tc.tau, tc.cross, shards, par)
				t.Run(name, func(t *testing.T) {
					rng := rand.New(rand.NewSource(7))
					src := randomShardTable(rng, 60, tc.cross)
					opts := Options{Threshold: tc.tau, CrossSourceOnly: tc.cross, Parallelism: 1}

					want := Join(src, opts)

					// Same rows through the sharded index in three deltas.
					tab := record.NewTable("text")
					sopts := opts
					sopts.Parallelism = par
					sx := NewSharded(tab, shards, sopts)
					var got []ScoredPair
					for _, hi := range []int{17, 40, src.Len()} {
						for i := tab.Len(); i < hi; i++ {
							if tc.cross {
								tab.AppendFrom(src.Source[i], src.Records[i].Values...)
							} else {
								tab.Append(src.Records[i].Values...)
							}
						}
						got = append(got, drainScatter(sx)...)
					}
					SortScored(got)
					if len(got) != len(want) {
						t.Fatalf("sharded join found %d pairs, single-index %d", len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("pair %d: sharded %+v, single-index %+v", i, got[i], want[i])
						}
					}
					if sx.Indexed() != src.Len() {
						t.Fatalf("Indexed() = %d after %d records", sx.Indexed(), src.Len())
					}
				})
			}
		}
	}
}

// TestShardedRankedMatchesSingleHeap pins UpdateRanked: per-shard heaps
// merged deterministically equal one heap over the single-index stream,
// including the truncation boundary.
func TestShardedRankedMatchesSingleHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	src := randomShardTable(rng, 80, false)
	opts := Options{Threshold: 0.2, Parallelism: 2}

	full := Join(src, Options{Threshold: 0.2, Parallelism: 1})
	for _, k := range []int{1, 7, 50, len(full), len(full) + 10, 0} {
		for _, shards := range []int{1, 2, 4, 8} {
			tab := record.NewTable("text")
			for i := range src.Records {
				tab.Append(src.Records[i].Values...)
			}
			got := NewSharded(tab, shards, opts).UpdateRanked(k)
			want := full
			if k > 0 && len(want) > k {
				want = want[:k]
			}
			if len(got) != len(want) {
				t.Fatalf("k=%d shards=%d: ranked %d pairs, want %d", k, shards, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("k=%d shards=%d pair %d: got %+v want %+v", k, shards, i, got[i], want[i])
				}
			}
		}
	}
}

// TestShardOfTokensStability pins the shard key to record content: the
// same token set lands on the same shard regardless of table position or
// batching, and the key spreads a diverse population across shards.
func TestShardOfTokensStability(t *testing.T) {
	ids := []int32{3, 17, 255, 1024}
	for _, shards := range []int{1, 2, 4, 8, 16} {
		s1 := ShardOfTokens(ids, shards)
		s2 := ShardOfTokens(append([]int32(nil), ids...), shards)
		if s1 != s2 {
			t.Fatalf("same tokens, different shards: %d vs %d", s1, s2)
		}
		if s1 < 0 || s1 >= shards {
			t.Fatalf("ShardOfTokens out of range: %d of %d", s1, shards)
		}
	}
	if got := ShardOfTokens(ids, 1); got != 0 {
		t.Fatalf("single shard must own everything, got %d", got)
	}
	if got := ShardOfTokens(ids, 0); got != 0 {
		t.Fatalf("shards=0 must map to 0, got %d", got)
	}
	// Distribution: 1000 distinct singleton token sets across 8 shards
	// should leave no shard empty (a degenerate hash would).
	counts := make([]int, 8)
	for i := int32(0); i < 1000; i++ {
		counts[ShardOfTokens([]int32{i}, 8)]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Fatalf("shard %d owns none of 1000 distinct token sets", s)
		}
	}
}

// TestShardedEarlyStop: a sink returning false stops the scan, but the
// delta is still absorbed — the next update only sees new records.
func TestShardedEarlyStop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := randomShardTable(rng, 40, false)
	tab := record.NewTable("text")
	for i := range src.Records {
		tab.Append(src.Records[i].Values...)
	}
	sx := NewSharded(tab, 4, Options{Threshold: 0.2, Parallelism: 2})
	var seen atomic.Int32
	sx.UpdateScatter(func(s int, sp ScoredPair) bool {
		seen.Add(1)
		return false
	})
	if n := seen.Load(); n == 0 || n > 4 {
		// At most one emission per shard before the stop flag propagates.
		t.Fatalf("early stop saw %d emissions, want 1..4", n)
	}
	if sx.Indexed() != tab.Len() {
		t.Fatalf("stopped delta not absorbed: Indexed() = %d of %d", sx.Indexed(), tab.Len())
	}
	// The next scatter must emit nothing: no new records.
	sx.UpdateScatter(func(s int, sp ScoredPair) bool {
		t.Error("scatter after absorbed delta emitted a pair")
		return true
	})
}

// TestShardedDiagnostics sanity-checks the footprint accessors against
// the single index.
func TestShardedDiagnostics(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := randomShardTable(rng, 50, false)
	opts := Options{Threshold: 0.4, Parallelism: 1}

	ix := NewIndex(src, opts)
	ix.Update()

	tab := record.NewTable("text")
	for i := range src.Records {
		tab.Append(src.Records[i].Values...)
	}
	sx := NewSharded(tab, 4, opts)
	drainScatter(sx)

	if got, want := sx.PostingsEntries(), ix.PostingsEntries(); got != want {
		t.Errorf("sharded postings hold %d entries, single index %d", got, want)
	}
	total := 0
	for s := range sx.shards {
		total += len(sx.shards[s].members)
	}
	// Only records with a non-empty prefix become members; empties are
	// tracked globally. Members must never exceed the table.
	if total > tab.Len() {
		t.Errorf("shard members total %d of %d records", total, tab.Len())
	}
	if len(sx.shards) != 4 {
		t.Errorf("shard count = %d", len(sx.shards))
	}
}
