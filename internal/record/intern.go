package record

import (
	"slices"

	"github.com/crowder/crowder/internal/engine"
)

// Interner assigns dense int32 IDs to token strings. Dense IDs let the
// similarity and join layers replace hash-map token sets with sorted
// []int32 slices: intersections become linear merges, inverted indexes
// become flat slices, and the per-token memory drops from a map entry to
// four bytes. IDs are assigned in first-seen order, starting at 0.
//
// An Interner is not safe for concurrent mutation; concurrent read-only
// use (Lookup, Token, Len) is safe once interning is complete.
type Interner struct {
	ids  map[string]int32
	toks []string
}

// NewInterner creates an empty interner.
func NewInterner() *Interner {
	return &Interner{ids: make(map[string]int32)}
}

// Intern returns the ID of tok, assigning the next dense ID if unseen.
func (in *Interner) Intern(tok string) int32 {
	if id, ok := in.ids[tok]; ok {
		return id
	}
	id := int32(len(in.toks))
	in.ids[tok] = id
	in.toks = append(in.toks, tok)
	return id
}

// Lookup returns the ID of tok if it has been interned.
func (in *Interner) Lookup(tok string) (int32, bool) {
	id, ok := in.ids[tok]
	return id, ok
}

// Token returns the string for an interned ID. It panics on out-of-range
// IDs, which indicates a programming error at the call site.
func (in *Interner) Token(id int32) string {
	return in.toks[id]
}

// Len returns the number of distinct interned tokens; valid IDs are
// [0, Len).
func (in *Interner) Len() int { return len(in.toks) }

// IDSet interns every token and returns the deduplicated IDs sorted
// ascending — the canonical set representation used by the similarity
// merge-intersection functions.
func (in *Interner) IDSet(tokens ...string) []int32 {
	if len(tokens) == 0 {
		return nil
	}
	out := make([]int32, 0, len(tokens))
	for _, t := range tokens {
		out = append(out, in.Intern(t))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// The token cache is filled in chunks of tokenChunkRecords contiguous
// records. With several workers, up to tokenWaveChunks chunks are scanned
// at once and then merged, which bounds the scratch and the chunk-local
// dictionaries alive at any moment no matter how large the backlog is.
const (
	tokenChunkRecords = 2048
	tokenWaveChunks   = 16
)

// tokenChunk is one contiguous run of records on its way into the cache.
type tokenChunk struct {
	lo, hi int
	// flat holds the ID of every token occurrence, record after record;
	// offs[k] and offs[k+1] bound record lo+k in it.
	flat []int32
	offs []int
	// dict is the chunk-local dictionary flat's IDs refer to until
	// finish translates them through remap, which the merge fills. Both
	// stay nil on the inline path, where flat holds final IDs.
	dict  *Interner
	remap []int32
	// low is the scratch upper-case tokens are lowered into.
	low []byte
}

func isAlnum(c byte) bool { return c-'0' < 10 || (c|0x20)-'a' < 26 }

// appendTokenIDs scans one attribute value and appends the ID of each of
// its tokens, interned in in, to dst. A byte outside [0-9A-Za-z] separates
// tokens — exactly Normalize's rune rule, since every byte of a non-ASCII
// or invalid sequence is ≥ 0x80 and the rune it belongs to becomes a
// space. A token without upper-case letters is interned as a substring of
// v, so the common case allocates nothing.
func (in *Interner) appendTokenIDs(dst []int32, v string, low *[]byte) []int32 {
	for i := 0; i < len(v); {
		if !isAlnum(v[i]) {
			i++
			continue
		}
		start, upper := i, false
		for ; i < len(v) && isAlnum(v[i]); i++ {
			upper = upper || v[i]-'A' < 26
		}
		if !upper {
			dst = append(dst, in.Intern(v[start:i]))
			continue
		}
		b := (*low)[:0]
		for _, c := range []byte(v[start:i]) {
			if c-'A' < 26 {
				c += 'a' - 'A'
			}
			b = append(b, c)
		}
		*low = b
		id, ok := in.ids[string(b)]
		if !ok {
			id = in.Intern(string(b))
		}
		dst = append(dst, id)
	}
	return dst
}

// scan tokenizes the chunk's records into flat, interning in in.
func (c *tokenChunk) scan(recs []Record, in *Interner) {
	c.flat, c.offs = c.flat[:0], append(c.offs[:0], 0)
	for i := c.lo; i < c.hi; i++ {
		for _, v := range recs[i].Values {
			c.flat = in.appendTokenIDs(c.flat, v, &c.low)
		}
		c.offs = append(c.offs, len(c.flat))
	}
}

// finish turns the scanned occurrences into each record's canonical set
// — translated through remap when the scan used a chunk-local
// dictionary, sorted, deduplicated — and stores the sets in out, backed
// by one exact-size arena for the whole chunk.
func (c *tokenChunk) finish(out [][]int32) {
	w := 0
	for k := 0; k < c.hi-c.lo; k++ {
		set := c.flat[c.offs[k]:c.offs[k+1]]
		if c.remap != nil {
			for x, id := range set {
				set[x] = c.remap[id]
			}
		}
		slices.Sort(set)
		set = slices.Compact(set)
		c.offs[k] = w
		w += copy(c.flat[w:], set)
	}
	c.offs[c.hi-c.lo] = w
	arena := slices.Clone(c.flat[:w])
	for k := 0; k < c.hi-c.lo; k++ {
		if a, b := c.offs[k], c.offs[k+1]; a < b {
			out[c.lo+k] = arena[a:b:b]
		}
	}
}

// ensureTokenIDs extends the table's token-ID cache to cover every
// record, tokenizing each record exactly once over the table's lifetime.
// The caller must hold t.mu.
//
// With one worker (every lazy caller) the records are scanned inline,
// straight into the table's interner. With more, each wave of chunks is
// scanned concurrently against chunk-local dictionaries, the
// dictionaries are merged into the interner serially — in chunk order,
// each in its local first-seen order, which is the global first-seen
// order a serial scan assigns IDs in — and the chunks are then
// translated and finished concurrently. Either way the cache, the
// interner and every ID are identical.
func (t *Table) ensureTokenIDs(workers int) {
	if t.interner == nil {
		t.interner = NewInterner()
	}
	lo, n := len(t.tokenIDs), len(t.Records)
	if lo == n {
		return
	}
	t.tokenIDs = append(t.tokenIDs, make([][]int32, n-lo)...)
	if workers = min(workers, (n-lo)/tokenChunkRecords); workers <= 1 {
		var c tokenChunk
		for next := lo; next < n; next += tokenChunkRecords {
			c.lo, c.hi = next, min(next+tokenChunkRecords, n)
			c.scan(t.Records, t.interner)
			c.finish(t.tokenIDs)
		}
		return
	}
	wave := make([]tokenChunk, tokenWaveChunks)
	for next := lo; next < n; {
		k := 0
		for ; k < len(wave) && next < n; k, next = k+1, next+tokenChunkRecords {
			wave[k].lo, wave[k].hi = next, min(next+tokenChunkRecords, n)
		}
		live := wave[:k]
		eachChunk := func(fn func(c *tokenChunk)) {
			g := min(workers, len(live))
			engine.Workers(g, func(w int) {
				for x := w; x < len(live); x += g {
					fn(&live[x])
				}
			})
		}
		eachChunk(func(c *tokenChunk) {
			if c.dict == nil {
				c.dict = NewInterner()
			}
			c.scan(t.Records, c.dict)
		})
		for x := range live {
			c := &live[x]
			c.remap = c.remap[:0]
			for _, tok := range c.dict.toks {
				c.remap = append(c.remap, t.interner.Intern(tok))
			}
			clear(c.dict.ids)
			c.dict.toks = c.dict.toks[:0]
		}
		eachChunk(func(c *tokenChunk) { c.finish(t.tokenIDs) })
	}
}

// WarmTokens brings the token cache up to date with the table using up
// to workers goroutines, so a caller that owns a worker budget (the
// resolver's machine pass) spends it on tokenizing too. It changes
// nothing observable: TokenIDs, Tokens and Postings fill the cache
// themselves, on the calling goroutine, whenever it is behind.
func (t *Table) WarmTokens(workers int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureTokenIDs(workers)
}

// TokenIDs returns each record's token set as sorted dense IDs, indexed by
// record ID. The result is cached on the table: every record is tokenized
// once no matter how many times TokenIDs is called, and appending records
// later only tokenizes the new ones. Tables are append-only as far as the
// cache is concerned — mutating an already-tokenized record's Values in
// place is unsupported and would leave the cache stale. The returned
// slices must not be mutated. Safe for concurrent callers as long as the
// table itself is not being mutated concurrently.
func (t *Table) TokenIDs() [][]int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureTokenIDs(1)
	return t.tokenIDs[:len(t.Records):len(t.Records)]
}

// Tokens returns the table's token interner, building the token cache
// first so every record's tokens are present. Valid token IDs are
// [0, Tokens().Len()).
func (t *Table) Tokens() *Interner {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureTokenIDs(1)
	return t.interner
}

// TokenUniverse returns the number of distinct tokens across the table —
// the exclusive upper bound on the IDs in TokenIDs. Dense layers (inverted
// indexes, frequency tables) size their arrays with it.
func (t *Table) TokenUniverse() int {
	return t.Tokens().Len()
}
