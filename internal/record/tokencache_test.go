package record

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// parseRows turns fuzz data into rows: records split on '\n', attribute
// values on '\t' (both are token separators anyway, so every byte string
// is a valid table).
func parseRows(data string) [][]string {
	var rows [][]string
	for _, line := range strings.Split(data, "\n") {
		rows = append(rows, strings.Split(line, "\t"))
	}
	return rows
}

// referenceCache is the definition of the token cache, built without the
// Interner: every value goes through Normalize/Tokenize, serially, a
// token's ID is its position in first-seen order over all the rows, and
// a record's set is its tokens' IDs sorted and deduplicated.
func referenceCache(rows [][]string) ([]string, [][]int32) {
	index := map[string]int32{}
	var toks []string
	ids := make([][]int32, len(rows))
	for i, row := range rows {
		var set []int32
		for _, v := range row {
			for _, tok := range Tokenize(v) {
				id, ok := index[tok]
				if !ok {
					id = int32(len(toks))
					index[tok] = id
					toks = append(toks, tok)
				}
				set = append(set, id)
			}
		}
		slices.Sort(set)
		ids[i] = slices.Compact(set)
	}
	return toks, ids
}

// assertCache checks a table's cache against the reference: the same
// sorted sets record by record, and the same token behind every ID — the
// interner's first-seen order — which Lookup maps back to its ID.
func assertCache(t *testing.T, label string, tab *Table, toks []string, ids [][]int32) {
	t.Helper()
	got := tab.TokenIDs()
	if len(got) != len(ids) {
		t.Fatalf("%s: cache covers %d records; want %d", label, len(got), len(ids))
	}
	for i := range ids {
		if !slices.Equal(got[i], ids[i]) {
			t.Fatalf("%s: record %d (%q) has IDs %v; want %v", label, i, tab.Records[i].Values, got[i], ids[i])
		}
	}
	if tab.TokenUniverse() != len(toks) {
		t.Fatalf("%s: universe %d; want %d", label, tab.TokenUniverse(), len(toks))
	}
	in := tab.interner
	for id, want := range toks {
		if g := in.Token(int32(id)); g != want {
			t.Fatalf("%s: token %d is %q; want %q", label, id, g, want)
		}
		if g, ok := in.Lookup(in.Token(int32(id))); !ok || g != int32(id) {
			t.Fatalf("%s: Lookup(Token(%d)) = %d, %v", label, id, g, ok)
		}
	}
}

// FuzzTokenizeEquivalence pins the cache's byte-level scanner to its
// definition, referenceCache: for arbitrary values — mixed case, digits,
// punctuation, multi-byte runes, invalid UTF-8, empty and all-separator
// strings, tokens longer than 255 bytes — the lazy inline path and the
// warmed path at 1, 3 and 8 workers all reproduce the reference sets and
// token IDs.
func FuzzTokenizeEquivalence(f *testing.F) {
	f.Add("iPad Two 16GB WiFi\tWhite\nipad TWO 16gb")
	f.Add("\xff\xfeA\x80b ÀÉ 東京x\n\n \t.")
	f.Add(strings.Repeat("Ab9", 100) + "\n" + strings.Repeat("aB9", 100) + " ab9")
	f.Add("alpha Beta\n -- ,.;\t/\x80 \nbeta GAMMA")
	f.Fuzz(func(t *testing.T, data string) {
		rows := parseRows(data)
		toks, ids := referenceCache(rows)

		lazy := NewTable("a")
		for _, row := range rows {
			lazy.Append(row...)
		}
		assertCache(t, "lazy", lazy, toks, ids)

		// Enough copies of the rows to span several chunks; the
		// reference is extended the same way.
		reps := 2*tokenChunkRecords/len(rows) + 2
		var all [][]string
		for r := 0; r < reps; r++ {
			all = append(all, rows...)
		}
		toks, ids = referenceCache(all)
		for _, workers := range []int{1, 3, 8} {
			warm := NewTable("a")
			for _, row := range all {
				warm.Append(row...)
			}
			warm.WarmTokens(workers)
			assertCache(t, fmt.Sprintf("warm workers=%d", workers), warm, toks, ids)
		}
	})
}

// syntheticRows builds n rows whose tokens mix table-wide repeats, tokens
// local to a stretch of rows, unique tokens, upper case and token-less
// rows, so chunk-local dictionaries overlap each other and the global
// one in every way.
func syntheticRows(n int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		if i%97 == 0 {
			rows[i] = []string{"", " -- "}
			continue
		}
		rows[i] = []string{
			fmt.Sprintf("cat%d Zone%d u%d", i%7, i/500, i),
			fmt.Sprintf("d%d d%d,cat%d", (i*31)%1000, (i*17)%1000, i%7),
		}
	}
	return rows
}

// The cache is identical at every worker count, for table sizes that
// split into chunks and waves unevenly, and however the rows arrived.
func TestTokenCacheWorkerAndBatchInvariance(t *testing.T) {
	checkWorkerAndBatchInvariance(t, syntheticRows)
}

// The same holds for rows shaped like a scale join's input, whose
// universe is mostly tokens seen once.
func TestTokenCacheManyDistinctTokens(t *testing.T) {
	checkWorkerAndBatchInvariance(t, scaleRows)
}

// scaleRows builds n rows shaped like dataset.ScaleN's: a unique SKU,
// five descriptors drawn from n/2, so mostly seen once, and two tokens
// from a Zipf head of 2 000, in mixed case. Each chunk also carries a
// token shared with its neighbours: x5 is first seen in two chunks of
// the first wave, 14 and 15, and again in chunk 16, the next wave's
// first.
func scaleRows(n int) [][]string {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.2, 1, 1999)
	desc := func() int { return rng.Intn(n/2 + 1) }
	rows := make([][]string, n)
	for i := range rows {
		rows[i] = []string{
			fmt.Sprintf("Cat%d cat%d SKU-%d", zipf.Uint64(), zipf.Uint64(), i),
			fmt.Sprintf("d%d D%d d%d d%d d%d x%d", desc(), desc(), desc(), desc(), desc(), (i/tokenChunkRecords+1)/3),
		}
	}
	return rows
}

// Token hashes decide only where a token is looked for, never which token
// it is: with every hash one constant, or one bit, the cache still equals
// the reference at every size, worker count and arrival order.
func TestTokenCacheHashCollisions(t *testing.T) {
	for _, mask := range []uint32{0, 1} {
		t.Run(fmt.Sprintf("mask=%d", mask), func(t *testing.T) {
			narrowHash(t, mask)
			checkWorkerAndBatchInvariance(t, collidingRows)
		})
	}
}

// collidingRows is syntheticRows over a vocabulary of a few dozen tokens.
// Under a degenerate hash all tokens share one probe cluster, so every
// lookup walks it and a universe of syntheticRows' size would take
// minutes. A zone token is new in every chunk, so each wave's merge
// still adds tokens, and upper-case variants and token-less rows remain.
func collidingRows(n int) [][]string {
	rows := make([][]string, n)
	for i := range rows {
		if i%97 == 0 {
			rows[i] = []string{"", " -- "}
			continue
		}
		rows[i] = []string{
			fmt.Sprintf("cat%d Zone%d", i%7, i/tokenChunkRecords),
			fmt.Sprintf("d%d,CAT%d", (i*5)%13, (i+3)%7),
		}
	}
	return rows
}

// narrowHash masks every token hash with mask until the test ends.
func narrowHash(t *testing.T, mask uint32) {
	old := hashMask
	hashMask = mask
	t.Cleanup(func() { hashMask = old })
}

func checkWorkerAndBatchInvariance(t *testing.T, rowsOf func(n int) [][]string) {
	t.Helper()
	sizes := []int{1, tokenChunkRecords - 1, 2*tokenChunkRecords + 17, tokenWaveChunks*tokenChunkRecords + 3*tokenChunkRecords/2}
	for _, n := range sizes {
		rows := rowsOf(n)
		toks, ids := referenceCache(rows)
		for _, workers := range []int{1, 2, 8} {
			tab := NewTable("a", "b")
			for _, row := range rows {
				tab.Append(row...)
			}
			tab.WarmTokens(workers)
			assertCache(t, fmt.Sprintf("n=%d workers=%d", n, workers), tab, toks, ids)

			// A delta of a wave or more filled onto a warm table.
			tab = NewTable("a", "b")
			for i, row := range rows {
				if i == n/16 {
					tab.TokenIDs()
				}
				tab.Append(row...)
			}
			tab.WarmTokens(workers)
			assertCache(t, fmt.Sprintf("n=%d workers=%d warm delta", n, workers), tab, toks, ids)
		}

		// Many appends of growing size, each followed by a lazy or a
		// warmed fill, ≡ one batch.
		grown := NewTable("a", "b")
		for i, step := 0, 1; i < n; step = step*3 + 1 {
			for hi := min(i+step, n); i < hi; i++ {
				grown.Append(rows[i]...)
			}
			if step%2 == 0 {
				grown.WarmTokens(8)
			} else {
				grown.TokenIDs()
			}
		}
		assertCache(t, fmt.Sprintf("n=%d grown", n), grown, toks, ids)
	}
}

// A small delta on a large warm table is tokenized inline: it allocates
// for the delta, not for the table or the token universe (whose slices
// only grow amortized, hence the median).
func TestTokenCacheSmallDeltaAllocations(t *testing.T) {
	tab := NewTable("a", "b")
	for _, row := range syntheticRows(50000) {
		tab.Append(row...)
	}
	tab.TokenIDs()
	var perDelta []uint64
	var before, after runtime.MemStats
	for d := 0; d < 21; d++ {
		for k := 0; k < 100; k++ {
			tab.Append(fmt.Sprintf("cat1 d5 fresh%d", d*100+k), "d7")
		}
		runtime.ReadMemStats(&before)
		tab.WarmTokens(8)
		runtime.ReadMemStats(&after)
		perDelta = append(perDelta, after.TotalAlloc-before.TotalAlloc)
	}
	slices.Sort(perDelta)
	// The cache's slice headers alone are 24 B × 50 000 records.
	if med := perDelta[len(perDelta)/2]; med > 64<<10 {
		t.Errorf("a 100-record delta allocated %d bytes (median of %v); want O(delta)", med, perDelta)
	}
}

// BenchmarkTokenCache times a cold fill of the token cache over
// scale-shaped rows, a batch-sized table and a scale-sized one, at one
// worker (the lazy TokenIDs path) and at GOMAXPROCS.
func BenchmarkTokenCache(b *testing.B) {
	for _, n := range []int{1 << 13, 1 << 18} {
		tab := NewTable("a", "b")
		for _, row := range scaleRows(n) {
			tab.Append(row...)
		}
		for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
			b.Run(fmt.Sprintf("rows=%d/workers=%d", n, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					tab.interner, tab.tokenIDs = nil, nil
					tab.WarmTokens(workers)
				}
			})
		}
	}
}
