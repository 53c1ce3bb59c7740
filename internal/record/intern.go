package record

import (
	"math"
	"slices"

	"github.com/crowder/crowder/internal/engine"
)

// Interner assigns dense int32 IDs to token strings. Dense IDs let the
// similarity and join layers replace hash-map token sets with sorted
// []int32 slices: intersections become linear merges, inverted indexes
// become flat slices, and the per-token memory drops from a map entry to
// four bytes. IDs are assigned in first-seen order, starting at 0.
//
// The interner holds no pointer per token. Token bytes lie back to back
// in one arena, in ID order, bounded by uint32 offsets; an open-addressing
// table — a power-of-two slot array, linearly probed, at most half full —
// maps a token's 32-bit hash to its ID and its arena bounds. A probe reads
// one slot and reads the arena only when the slot's hash equals the
// token's: equal hashes alone never decide equality. The hash is a fixed
// function of the bytes, so probe sequences, like IDs, are the same in
// every process.
//
// An Interner is not safe for concurrent use while it is being mutated:
// Intern may reallocate the arena and the slot array under a reader.
// Reads alone (Lookup, Token, Len) may run concurrently. A Table's
// interner is touched only under the table's lock.
type Interner struct {
	slots []slot
	arena []byte
	// offs[id] and offs[id+1] bound token id in arena; offs[0] is 0.
	offs []uint32
	// hashes[id] is token id's hash, which a chunk-local dictionary
	// hands to the merge so that nothing is hashed twice.
	hashes []uint32
}

// slot is one entry of the table: a token's hash, its ID plus one (so the
// zero slot is empty), and its bytes' bounds in the arena, so a hit reads
// the slot and the bytes and nothing else.
type slot struct {
	hash     uint32
	id       int32
	off, end uint32
}

// hashMask is applied to every token hash. It is all ones; tests narrow
// it to force collisions.
var hashMask uint32 = math.MaxUint32

// tokenHash hashes a token's bytes: FNV-1a, then murmur3's finalizer, so
// that the low bits, which pick the slot, depend on every byte.
func tokenHash(tok []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range tok {
		h = (h ^ uint32(c)) * 16777619
	}
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h & hashMask
}

// NewInterner creates an empty interner.
func NewInterner() *Interner {
	return &Interner{slots: make([]slot, 16), offs: []uint32{0}}
}

// Intern returns the ID of tok, assigning the next dense ID if unseen.
func (in *Interner) Intern(tok string) int32 {
	b := []byte(tok)
	return in.intern(tokenHash(b), b)
}

// Lookup returns the ID of tok if it has been interned.
func (in *Interner) Lookup(tok string) (int32, bool) {
	b := []byte(tok)
	i, ok := in.find(tokenHash(b), b)
	return in.slots[i].id - 1, ok
}

// Token returns the string for an interned ID. It panics on out-of-range
// IDs, which indicates a programming error at the call site.
func (in *Interner) Token(id int32) string {
	return string(in.token(id))
}

// Len returns the number of distinct interned tokens; valid IDs are
// [0, Len).
func (in *Interner) Len() int { return len(in.hashes) }

// token returns token id's bytes in the arena.
func (in *Interner) token(id int32) []byte {
	return in.arena[in.offs[id]:in.offs[id+1]]
}

// find returns the index of the slot holding tok, whose hash is h, and
// true; or, when tok is absent, the empty slot it would go in and false.
func (in *Interner) find(h uint32, tok []byte) (int, bool) {
	mask := len(in.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := in.slots[i]
		if s.id == 0 {
			return i, false
		}
		if s.hash == h && string(in.arena[s.off:s.end]) == string(tok) {
			return i, true
		}
	}
}

// intern returns the ID of tok, whose hash is h, assigning the next ID if
// unseen. It copies tok into the arena and keeps no reference to it.
func (in *Interner) intern(h uint32, tok []byte) int32 {
	i, ok := in.find(h, tok)
	if ok {
		return in.slots[i].id - 1
	}
	id := int32(len(in.hashes))
	in.arena = append(in.arena, tok...)
	if uint64(len(in.arena)) > math.MaxUint32 {
		panic("record: interned tokens exceed 4 GiB")
	}
	in.offs = append(in.offs, uint32(len(in.arena)))
	in.hashes = append(in.hashes, h)
	in.slots[i] = slot{hash: h, id: id + 1, off: in.offs[id], end: in.offs[id+1]}
	if 2*len(in.hashes) > len(in.slots) {
		in.rehash(2 * len(in.slots))
	}
	return id
}

// rehash rebuilds the table with n slots. The old slots are read in
// order, so the writes, which land near i or i+len(old), are too.
func (in *Interner) rehash(n int) {
	old := in.slots
	in.slots = make([]slot, n)
	mask := n - 1
	for _, s := range old {
		if s.id == 0 {
			continue
		}
		i := int(s.hash) & mask
		for in.slots[i].id != 0 {
			i = (i + 1) & mask
		}
		in.slots[i] = s
	}
}

// resolve appends to ids, for each of d's tokens in ID order, its ID in
// in, or −1 (an empty slot's id less one) where in lacks it. It only
// reads in.
func (in *Interner) resolve(d *Interner, ids []int32) []int32 {
	for id, h := range d.hashes {
		i, _ := in.find(h, d.token(int32(id)))
		ids = append(ids, in.slots[i].id-1)
	}
	return ids
}

// reset empties the interner, keeping its memory for reuse.
func (in *Interner) reset() {
	clear(in.slots)
	in.arena, in.offs, in.hashes = in.arena[:0], in.offs[:1], in.hashes[:0]
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
	// finish translates them through remap, which the worker fills with
	// the IDs the table's interner already has and the merge completes.
	// Both stay nil on the inline path, where flat holds final IDs.
	dict  *Interner
	remap []int32
	// low is the scratch each token is lowered into.
	low []byte
}

func isAlnum(c byte) bool { return c-'0' < 10 || (c|0x20)-'a' < 26 }

// appendTokenIDs scans one attribute value and appends the ID of each of
// its tokens, interned in in, to dst. A byte outside [0-9A-Za-z] separates
// tokens — exactly Normalize's rune rule, since every byte of a non-ASCII
// or invalid sequence is ≥ 0x80 and the rune it belongs to becomes a
// space. Each token is lowered into the scratch low (OR-ing 0x20 lowers a
// letter and leaves a digit as it is), so nothing is allocated per token.
func (in *Interner) appendTokenIDs(dst []int32, v string, low *[]byte) []int32 {
	b := *low
	for i := 0; i < len(v); {
		if !isAlnum(v[i]) {
			i++
			continue
		}
		b = b[:0]
		for ; i < len(v) && isAlnum(v[i]); i++ {
			b = append(b, v[i]|0x20)
		}
		dst = append(dst, in.intern(tokenHash(b), b))
	}
	*low = b
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
// scanned concurrently against chunk-local dictionaries, and each worker
// looks its dictionary's tokens up in the table's interner, which nothing
// writes meanwhile. The tokens it lacked are then merged into it serially
// — in chunk order, each dictionary in its local first-seen order, which
// is the global first-seen order a serial scan assigns IDs in, reusing
// the hashes the workers computed — and the chunks are translated and
// finished concurrently. Either way the cache, the interner and every ID
// are identical.
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
			c.remap = t.interner.resolve(c.dict, c.remap[:0])
		})
		for x := range live {
			c := &live[x]
			for id, g := range c.remap {
				if g < 0 {
					c.remap[id] = t.interner.intern(c.dict.hashes[id], c.dict.token(int32(id)))
				}
			}
			c.dict.reset()
		}
		eachChunk(func(c *tokenChunk) { c.finish(t.tokenIDs) })
	}
}

// WarmTokens brings the token cache up to date with the table using up
// to workers goroutines, so a caller that owns a worker budget (the
// resolver's machine pass) spends it on tokenizing too. It changes
// nothing observable: TokenIDs, TokenUniverse and Postings fill the cache
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

// TokenUniverse returns the number of distinct tokens across the table —
// the exclusive upper bound on the IDs in TokenIDs. Dense layers (inverted
// indexes, frequency tables) size their arrays with it.
func (t *Table) TokenUniverse() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureTokenIDs(1)
	return t.interner.Len()
}
