package simjoin

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"github.com/crowder/crowder/internal/record"
)

// indexTable builds a table with duplicates, near-duplicates, unrelated
// records and token-less records — the shapes that exercise the prefix
// filter, the length filter and the empty-set convention.
func indexTable() *record.Table {
	t := record.NewTable("name", "price")
	t.Append("iPad Two 16GB WiFi White", "$490")
	t.Append("iPad 2nd generation 16GB WiFi White", "$469")
	t.Append("iPhone 4th generation White 16GB", "$545")
	t.Append("Apple iPhone 4 16GB White", "$520")
	t.Append("", "")
	t.Append("Apple iPad2 16GB WiFi White", "$499")
	t.Append("Samsung Galaxy Tab 101 Wifi 16GB", "$480")
	t.Append("", "")
	t.Append("Apple iPod shuffle 2GB Blue", "$49")
	t.Append("iPad Two 16GB WiFi White", "$490")
	return t
}

func assertSamePairs(t *testing.T, label string, want, got []ScoredPair) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d pairs vs %d (got %v, want %v)", label, len(got), len(want), got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: pair %d differs: %+v vs %+v", label, i, got[i], want[i])
		}
	}
}

// The union of incremental Update results must equal the batch join of
// the final table, for any batch split, threshold and parallelism.
func TestIndexIncrementalEquivalentToBatch(t *testing.T) {
	full := indexTable()
	n := full.Len()
	for _, tau := range []float64{0, 0.3, 0.5, 0.8, 1.0} {
		for _, par := range []int{1, 3} {
			for _, split := range [][]int{{n}, {1, n - 1}, {4, 2, n - 6}, {2, 0, 3, n - 5}} {
				opts := Options{Threshold: tau, Parallelism: par}
				want := BruteForce(full, opts)

				inc := record.NewTable("name", "price")
				ix := NewIndex(inc, opts)
				var got []ScoredPair
				next := 0
				for _, size := range split {
					for k := 0; k < size; k++ {
						inc.Append(full.Records[next].Values...)
						next++
					}
					got = append(got, ix.Update()...)
				}
				SortScored(got)
				assertSamePairs(t, "incremental union", want, got)
				if ix.Indexed() != n {
					t.Fatalf("Indexed = %d; want %d", ix.Indexed(), n)
				}
			}
		}
	}
}

// Update must only emit pairs involving new records — never re-emit a
// pair between two already-indexed records.
func TestIndexUpdateEmitsOnlyDeltaPairs(t *testing.T) {
	full := indexTable()
	inc := record.NewTable("name", "price")
	ix := NewIndex(inc, Options{Threshold: 0.3})
	seen := record.NewPairSet()
	for i := 0; i < full.Len(); i++ {
		inc.Append(full.Records[i].Values...)
		for _, sp := range ix.Update() {
			if int(sp.Pair.B) != i {
				t.Fatalf("delta after record %d emitted pair %v with no new endpoint", i, sp.Pair)
			}
			if seen.Has(sp.Pair.A, sp.Pair.B) {
				t.Fatalf("pair %v emitted twice", sp.Pair)
			}
			seen.Add(sp.Pair.A, sp.Pair.B)
		}
	}
	if ix.Update() != nil {
		t.Error("Update with no new records should return nil")
	}
}

// Cross-source restriction applies to delta probes too.
func TestIndexCrossSourceOnly(t *testing.T) {
	tab := record.NewTable("name")
	ix := NewIndex(tab, Options{Threshold: 0.2, CrossSourceOnly: true})
	tab.AppendFrom(0, "apple ipod touch 8gb")
	tab.AppendFrom(0, "apple ipod touch 8gb black")
	if got := ix.Update(); len(got) != 0 {
		t.Fatalf("same-source pairs leaked: %v", got)
	}
	tab.AppendFrom(1, "apple ipod touch 8gb 2nd gen")
	got := ix.Update()
	want := BruteForce(tab, Options{Threshold: 0.2, CrossSourceOnly: true})
	assertSamePairs(t, "cross-source delta", want, got)
}

// Join must remain exactly the one-shot Index, including after the
// refactor onto the shared implementation.
func TestJoinMatchesOneShotIndex(t *testing.T) {
	tab := indexTable()
	for _, tau := range []float64{0, 0.4, 0.8} {
		opts := Options{Threshold: tau}
		assertSamePairs(t, "join vs index", NewIndex(tab, opts).Update(), Join(tab, opts))
	}
}

// Every posting list is byte for byte the list that appending each
// delta's prefixes record by record builds — PostingList's definition —
// whichever way the delta is inserted: token-major for a delta with as
// many prefix entries as the index has tokens, record-major below that.
// The deltas are one large first delta, then small ones, with a large
// one in the middle, over rows that mix unique, Zipf-head and one-token
// rows (whose lists cross block boundaries) and token-less rows.
func TestPostingsMatchPerRecordAppend(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		zipf := rand.NewZipf(rng, 1.3, 1, 199)
		tab := record.NewTable("a")
		ix := NewIndex(tab, Options{Threshold: []float64{0.2, 0.5, 0.8}[seed%3]})
		var ref []PostingList
		var tokenMajor, recordMajor int
		for d := 0; d < 30; d++ {
			size := 1 + rng.Intn(40)
			if d == 0 || d == 15 {
				size = 3000 / (d/15 + 1)
			}
			for k := 0; k < size; k++ {
				switch r := tab.Len(); rng.Intn(8) {
				case 0:
					tab.Append("")
				case 1, 2:
					tab.Append(fmt.Sprintf("h%d", rng.Intn(5)))
				default:
					tab.Append(fmt.Sprintf("u%d c%d c%d w%d w%d w%d", r, zipf.Uint64(), zipf.Uint64(), rng.Intn(500), rng.Intn(500), rng.Intn(500)))
				}
			}
			lo := ix.Indexed()
			ix.Absorb(tab.Len())
			if len(ix.prefArena) >= len(ix.postings) {
				tokenMajor++
			} else {
				recordMajor++
			}
			for len(ref) < len(ix.postings) {
				ref = append(ref, PostingList{})
			}
			for i := lo; i < tab.Len(); i++ {
				for _, tok := range ix.pref(i, lo) {
					ref[tok].Append(int32(i))
				}
			}
			for tok := range ref {
				got, want := &ix.postings[tok], &ref[tok]
				if !slices.Equal(got.data, want.data) || !slices.Equal(got.meta, want.meta) || got.last != want.last || got.n != want.n {
					t.Fatalf("seed %d delta %d: token %d's list is %+v; per-record appends give %+v", seed, d, tok, *got, *want)
				}
			}
		}
		if tokenMajor == 0 || recordMajor == 0 {
			t.Fatalf("seed %d: %d token-major and %d record-major deltas; want both", seed, tokenMajor, recordMajor)
		}
	}
}

// A small delta on a large index allocates for the delta, not for the
// token universe: nothing the delta's prepare and insert use is sized by
// it. The index's own slices only grow amortized, hence the median.
func TestAbsorbSmallDeltaAllocations(t *testing.T) {
	tab := record.NewTable("a")
	for i := 0; i < 50000; i++ {
		tab.Append(fmt.Sprintf("u%d c%d d%d d%d", i, i%97, (i*31)%5000, (i*17)%5000))
	}
	ix := NewIndex(tab, Options{Threshold: 0.5, Parallelism: 1})
	ix.Absorb(tab.Len())
	var perDelta []uint64
	var before, after runtime.MemStats
	for d := 0; d < 21; d++ {
		for k := 0; k < 100; k++ {
			tab.Append(fmt.Sprintf("fresh%d c%d d%d", d*100+k, k%97, k))
		}
		tab.TokenIDs()
		runtime.ReadMemStats(&before)
		ix.Absorb(tab.Len())
		runtime.ReadMemStats(&after)
		perDelta = append(perDelta, after.TotalAlloc-before.TotalAlloc)
	}
	slices.Sort(perDelta)
	// The universe holds 55 000 tokens: 4 B apiece is 220 KB.
	if med := perDelta[len(perDelta)/2]; med > 32<<10 {
		t.Errorf("a 100-record Absorb allocated %d bytes (median of %v); want O(delta)", med, perDelta)
	}
}
