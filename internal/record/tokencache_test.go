package record

import (
	"fmt"
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

// referenceCache is the definition of the token cache: every value goes
// through Normalize/Tokenize and every record through IDSet, serially,
// over one fresh interner.
func referenceCache(rows [][]string) (*Interner, [][]int32) {
	in := NewInterner()
	ids := make([][]int32, len(rows))
	for i, row := range rows {
		var toks []string
		for _, v := range row {
			toks = append(toks, Tokenize(v)...)
		}
		ids[i] = in.IDSet(toks...)
	}
	return in, ids
}

// assertCache checks a table's cache against the reference: the same
// sorted sets record by record, and the same token behind every ID — the
// interner's first-seen order.
func assertCache(t *testing.T, label string, tab *Table, in *Interner, ids [][]int32) {
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
	if tab.TokenUniverse() != in.Len() {
		t.Fatalf("%s: universe %d; want %d", label, tab.TokenUniverse(), in.Len())
	}
	for id := int32(0); int(id) < in.Len(); id++ {
		if g, w := tab.Tokens().Token(id), in.Token(id); g != w {
			t.Fatalf("%s: token %d is %q; want %q", label, id, g, w)
		}
	}
}

// FuzzTokenizeEquivalence pins the cache's byte-level scanner to its
// definition, Interner.IDSet(Tokenize(v)...): for arbitrary values —
// mixed case, digits, punctuation, multi-byte runes, invalid UTF-8,
// empty and all-separator strings — the lazy inline path and the
// chunk-parallel path both reproduce the reference sets and interner.
func FuzzTokenizeEquivalence(f *testing.F) {
	f.Add("iPad Two 16GB WiFi\tWhite\nipad TWO 16gb")
	f.Add("\xff\xfeA\x80b ÀÉ 東京x\n\n \t.")
	f.Fuzz(func(t *testing.T, data string) {
		rows := parseRows(data)
		in, ids := referenceCache(rows)

		lazy := NewTable("a")
		for _, row := range rows {
			lazy.Append(row...)
		}
		assertCache(t, "lazy", lazy, in, ids)

		// Enough copies of the rows to span several chunks; the
		// reference is extended the same way.
		reps := 2*tokenChunkRecords/len(rows) + 2
		warm := NewTable("a")
		var all [][]string
		for r := 0; r < reps; r++ {
			for _, row := range rows {
				warm.Append(row...)
				all = append(all, row)
			}
		}
		warm.WarmTokens(3)
		in, ids = referenceCache(all)
		assertCache(t, "warm", warm, in, ids)
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
	sizes := []int{1, tokenChunkRecords - 1, 2*tokenChunkRecords + 17, tokenWaveChunks*tokenChunkRecords + 3*tokenChunkRecords/2}
	for _, n := range sizes {
		rows := syntheticRows(n)
		in, ids := referenceCache(rows)
		for _, workers := range []int{1, 2, 8} {
			tab := NewTable("a", "b")
			for _, row := range rows {
				tab.Append(row...)
			}
			tab.WarmTokens(workers)
			assertCache(t, fmt.Sprintf("n=%d workers=%d", n, workers), tab, in, ids)
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
		assertCache(t, fmt.Sprintf("n=%d grown", n), grown, in, ids)
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
