package record

import (
	"math"
	"math/bits"
	"slices"

	"github.com/crowder/crowder/internal/engine"
)

// Interner assigns dense int32 IDs to token strings. Dense IDs let the
// similarity and join layers replace hash-map token sets with sorted
// []int32 slices: intersections become linear merges, inverted indexes
// become flat slices, and the per-token memory drops from a map entry to
// four bytes. IDs are assigned in first-seen order, starting at 0.
//
// The interner holds no pointer per token. It is partitioned by the top
// six bits of a token's 32-bit hash; in each partition, token bytes lie
// back to back in one arena, bounded by uint32 offsets, and an
// open-addressing table — a power-of-two slot array, linearly probed, at
// most half full — maps a token's hash to its index in the partition and
// its arena bounds. A probe reads the arena only when the slot's hash
// equals the token's: equal hashes alone never decide equality. The hash
// is a fixed function of the bytes, so partitions, probe sequences and
// IDs are the same in every process.
//
// An Interner is not safe for concurrent use while it is being mutated:
// Intern may reallocate the arenas and the slot arrays under a reader.
// Reads alone (Lookup, Token, Len) may run concurrently. A Table's
// interner is touched only under the table's lock.
type Interner struct {
	parts [internParts]internPart
	// locs[id] is token id's index in its partition·internParts + partition.
	locs []uint32
}

const internParts = 64

type internPart struct {
	slots []slot
	arena []byte
	// offs[l] and offs[l+1] bound the partition's token l in arena (offs
	// is empty until the first token, then starts at 0); ids[l] is its ID,
	// or −1 while a bulk fill has yet to assign one.
	offs []uint32
	ids  []int32
}

// slot is one entry of a partition's table: a token's hash, its index
// plus one (so the zero slot is empty), and its bytes' bounds in the
// arena, so a hit reads the slot and the bytes and nothing else.
type slot struct {
	hash     uint32
	idx      int32
	off, end uint32
}

// hashMask is applied to every token hash. It is all ones; tests narrow
// it to force collisions, which also puts every token in partition 0.
var hashMask uint32 = math.MaxUint32

// tokenHash hashes a token's bytes: FNV-1a, then murmur3's finalizer, so
// that the low bits (the slot) and the top bits (the partition) depend
// on every byte.
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

// partOf returns the partition of a token whose hash is h: its top six
// bits, one of internParts.
func partOf(h uint32) uint32 { return h >> 26 }

// NewInterner creates an empty interner. A partition allocates nothing
// until its first token, unless a fill reserves room for them all.
func NewInterner() *Interner { return &Interner{} }

// reserve sizes the partitions of an empty interner for tokens distinct
// tokens of about width bytes each. Each kind of partition storage is
// carved from one allocation, with capped capacity, so a partition that
// outgrows its share grows alone while the rest stay put.
func (in *Interner) reserve(tokens, width int) {
	per := tokens/internParts + tokens/(4*internParts) + 1 // a quarter over the mean
	size := 8
	for size < 2*per {
		size *= 2
	}
	slots, ids := make([]slot, internParts*size), make([]int32, internParts*per)
	offs, arena := make([]uint32, internParts*(per+1)), make([]byte, internParts*per*width)
	for p := range in.parts {
		o, a := p*(per+1), p*per*width
		in.parts[p] = internPart{
			slots: slots[p*size : (p+1)*size : (p+1)*size],
			ids:   ids[p*per : p*per : (p+1)*per],
			offs:  offs[o : o+1 : o+per+1],
			arena: arena[a : a : a+per*width],
		}
	}
}

// Intern returns the ID of tok, assigning the next dense ID if unseen.
func (in *Interner) Intern(tok string) int32 {
	b := []byte(tok)
	return in.intern(tokenHash(b), b)
}

// Lookup returns the ID of tok if it has been interned.
func (in *Interner) Lookup(tok string) (int32, bool) {
	b := []byte(tok)
	h := tokenHash(b)
	pt := &in.parts[partOf(h)]
	if i, ok := pt.find(h, b); ok {
		return pt.ids[pt.slots[i].idx-1], true
	}
	return -1, false
}

// Token returns the string for an interned ID. It panics on out-of-range
// IDs, which indicates a programming error at the call site.
func (in *Interner) Token(id int32) string {
	pt, l := &in.parts[in.locs[id]%internParts], in.locs[id]/internParts
	return string(pt.arena[pt.offs[l]:pt.offs[l+1]])
}

// Len returns the number of distinct interned tokens; valid IDs are
// [0, Len).
func (in *Interner) Len() int { return len(in.locs) }

// intern returns the ID of tok, whose hash is h, assigning the next ID if
// unseen. It copies tok and keeps no reference to it.
func (in *Interner) intern(h uint32, tok []byte) int32 {
	p := partOf(h)
	l := in.parts[p].add(h, tok)
	if l < 0 {
		return in.assign(p, l)
	}
	return in.parts[p].ids[l]
}

// assign gives partition p's token l, which may carry add's flag, the
// next ID and returns it.
func (in *Interner) assign(p uint32, l int32) int32 {
	id := int32(len(in.locs))
	in.parts[p].ids[l&math.MaxInt32] = id
	in.locs = append(in.locs, uint32(l&math.MaxInt32)*internParts+p)
	return id
}

// find returns the index of the slot holding tok, whose hash is h, and
// true; or, when tok is absent, the empty slot it would go in and false.
func (pt *internPart) find(h uint32, tok []byte) (int, bool) {
	if len(pt.slots) == 0 {
		return 0, false
	}
	mask := len(pt.slots) - 1
	for i := int(h) & mask; ; i = (i + 1) & mask {
		s := pt.slots[i]
		if s.idx == 0 {
			return i, false
		}
		if s.hash == h && string(pt.arena[s.off:s.end]) == string(tok) {
			return i, true
		}
	}
}

// add returns the index of tok, whose hash is h, in the partition. A new
// token takes the next index, returned with the sign bit set, and ID −1.
func (pt *internPart) add(h uint32, tok []byte) int32 {
	if len(pt.slots) == 0 {
		pt.slots, pt.offs = make([]slot, 8), []uint32{0}
	}
	i, ok := pt.find(h, tok)
	if ok {
		return pt.slots[i].idx - 1
	}
	l := int32(len(pt.ids))
	pt.arena = append(pt.arena, tok...)
	if uint64(len(pt.arena)) > math.MaxUint32 {
		panic("record: a partition's interned tokens exceed 4 GiB")
	}
	pt.offs = append(pt.offs, uint32(len(pt.arena)))
	pt.ids = append(pt.ids, -1)
	pt.slots[i] = slot{hash: h, idx: l + 1, off: pt.offs[l], end: pt.offs[l+1]}
	if 2*len(pt.ids) > len(pt.slots) {
		pt.rehash(2 * len(pt.slots))
	}
	return l | math.MinInt32
}

// rehash rebuilds the table with n slots. The old slots are read in
// order, so the writes, which land near i or i+len(old), are too.
func (pt *internPart) rehash(n int) {
	old := pt.slots
	pt.slots = make([]slot, n)
	mask := n - 1
	for _, s := range old {
		if s.idx == 0 {
			continue
		}
		i := int(s.hash) & mask
		for pt.slots[i].idx != 0 {
			i = (i + 1) & mask
		}
		pt.slots[i] = s
	}
}

// The token cache is filled in chunks of tokenChunkRecords contiguous
// records. A bulk fill takes up to tokenWaveChunks chunks at a time,
// which bounds its scratch no matter how large the backlog is.
const (
	tokenChunkRecords = 2048
	tokenWaveChunks   = 16
)

// tokenChunk is one contiguous run of records on its way into the cache.
type tokenChunk struct {
	lo, hi int
	// low holds the chunk's tokens, lowered; occ and flat hold each
	// occurrence and its ID, and offs[k] and offs[k+1] bound record lo+k.
	low  []byte
	occ  []occurrence
	flat []int32
	offs []int
	// A bulk fill groups the occurrences by partition, in order within
	// each: partition p's are grouped[parts[p]:parts[p+1]], and ids[j] is
	// grouped[j]'s index in its partition, then its ID.
	grouped []occurrence
	ids     []int32
	parts   [internParts + 1]int32
}

// occurrence is one token occurrence: its hash and its bounds in low.
type occurrence struct{ hash, off, end uint32 }

func isAlnum(c byte) bool { return c-'0' < 10 || (c|0x20)-'a' < 26 }

// scan tokenizes the chunk's records into low, occ and offs. A byte
// outside [0-9A-Za-z] separates tokens — exactly Normalize's rune rule,
// since every byte of a non-ASCII or invalid sequence is ≥ 0x80 and the
// rune it belongs to becomes a space. OR-ing 0x20 lowers a letter and
// leaves a digit as it is.
func (c *tokenChunk) scan(recs []Record) {
	c.low, c.occ, c.offs = c.low[:0], c.occ[:0], append(c.offs[:0], 0)
	for _, r := range recs[c.lo:c.hi] {
		for _, v := range r.Values {
			for i := 0; i < len(v); {
				if !isAlnum(v[i]) {
					i++
					continue
				}
				off := len(c.low)
				for ; i < len(v) && isAlnum(v[i]); i++ {
					c.low = append(c.low, v[i]|0x20)
				}
				c.occ = append(c.occ, occurrence{tokenHash(c.low[off:]), uint32(off), uint32(len(c.low))})
			}
		}
		c.offs = append(c.offs, len(c.occ))
	}
	c.flat = slices.Grow(c.flat[:0], len(c.occ))[:len(c.occ)]
}

// distinct estimates the number of distinct tokens among the chunk's
// occurrences by linear counting over 2¹⁶ buckets of their hashes.
func (c *tokenChunk) distinct() int {
	var seen [1 << 10]uint64
	for _, o := range c.occ {
		seen[o.hash>>6&1023] |= 1 << (o.hash & 63)
	}
	zeros := 0
	for _, w := range seen {
		zeros += 64 - bits.OnesCount64(w)
	}
	if zeros == 0 {
		return len(c.occ)
	}
	return int(math.Ceil(-(1 << 16) * math.Log(float64(zeros)/(1<<16))))
}

// finish turns the occurrences' IDs into each record's canonical set —
// sorted, deduplicated — and stores the sets in out, backed by one
// exact-size arena for the whole chunk.
func (c *tokenChunk) finish(out [][]int32) {
	w := 0
	for k := 0; k < c.hi-c.lo; k++ {
		set := c.flat[c.offs[k]:c.offs[k+1]]
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
// A delta under a wave of chunks (four at one worker) is interned inline,
// token by token: there the interner stays in cache and a bulk fill costs
// more than it saves. A longer one goes a wave at a time: the chunks are
// scanned and their occurrences grouped by partition; each partition
// interns its occurrences in order, in a table that stays in cache,
// flagging tokens it adds; a serial pass in occurrence order gives them
// IDs, first-seen as inline; each partition patches its IDs in and each
// chunk gathers them back in order. The cache, the interner and every ID
// are the same at every worker count.
func (t *Table) ensureTokenIDs(workers int) {
	if t.interner == nil {
		t.interner = NewInterner()
	}
	lo, n := len(t.tokenIDs), len(t.Records)
	if lo == n {
		return
	}
	t.tokenIDs = append(t.tokenIDs, make([][]int32, n-lo)...)
	if wave := tokenWaveChunks * tokenChunkRecords; n-lo < wave || workers <= 1 && n-lo < 4*wave {
		var c tokenChunk
		for next := lo; next < n; next += tokenChunkRecords {
			c.lo, c.hi = next, min(next+tokenChunkRecords, n)
			c.scan(t.Records)
			if t.interner.Len() == 0 && len(c.occ) > 0 {
				// A cold fill: size every partition at once from the first
				// chunk's distinct tokens. A vocabulary grows about as the
				// square root of the text (Heaps' law), so the fill's is
				// the chunk's times the square root of the chunk count.
				chunks := float64(n-next) / tokenChunkRecords
				t.interner.reserve(int(float64(c.distinct())*math.Sqrt(max(chunks, 1))), (len(c.low)+len(c.occ)-1)/len(c.occ))
			}
			for k, o := range c.occ {
				c.flat[k] = t.interner.intern(o.hash, c.low[o.off:o.end])
			}
			c.finish(t.tokenIDs)
		}
		return
	}
	wave := make([]tokenChunk, tokenWaveChunks)
	each := func(m int, fn func(i int)) {
		g := min(workers, m)
		engine.Workers(g, func(w int) {
			for i := w; i < m; i += g {
				fn(i)
			}
		})
	}
	for next := lo; next < n; {
		k := 0
		for ; k < len(wave) && next < n; k, next = k+1, next+tokenChunkRecords {
			wave[k].lo, wave[k].hi = next, min(next+tokenChunkRecords, n)
		}
		live := wave[:k]
		each(len(live), func(x int) {
			c := &live[x]
			c.scan(t.Records)
			c.parts = [internParts + 1]int32{}
			for _, o := range c.occ {
				c.parts[partOf(o.hash)+1]++
			}
			for p := 1; p <= internParts; p++ {
				c.parts[p] += c.parts[p-1]
			}
			c.grouped = slices.Grow(c.grouped[:0], len(c.occ))[:len(c.occ)]
			c.ids = slices.Grow(c.ids[:0], len(c.occ))[:len(c.occ)]
			next := c.parts
			for _, o := range c.occ {
				c.grouped[next[partOf(o.hash)]] = o
				next[partOf(o.hash)]++
			}
		})
		each(internParts, func(p int) {
			pt := &t.interner.parts[p]
			for _, c := range live {
				for j := c.parts[p]; j < c.parts[p+1]; j++ {
					o := c.grouped[j]
					c.ids[j] = pt.add(o.hash, c.low[o.off:o.end])
				}
			}
		})
		for _, c := range live {
			next := c.parts
			for _, o := range c.occ {
				p := partOf(o.hash)
				if l := c.ids[next[p]]; l < 0 {
					t.interner.assign(p, l)
				}
				next[p]++
			}
		}
		each(internParts, func(p int) {
			ids := t.interner.parts[p].ids
			for _, c := range live {
				for j := c.parts[p]; j < c.parts[p+1]; j++ {
					c.ids[j] = ids[c.ids[j]&math.MaxInt32]
				}
			}
		})
		each(len(live), func(x int) {
			c := &live[x]
			next := c.parts
			for k, o := range c.occ {
				c.flat[k] = c.ids[next[partOf(o.hash)]]
				next[partOf(o.hash)]++
			}
			c.finish(t.tokenIDs)
		})
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
