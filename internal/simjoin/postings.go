package simjoin

import "encoding/binary"

// Block-compressed posting lists.
//
// The join index stores, per prefix token, the ascending list of record
// IDs whose prefix contains the token. The original representation was a
// flat []int32 per token: four bytes per entry plus append-doubling
// slack, which is what capped table sizes in RAM. A PostingList instead
// delta-encodes the IDs as uvarints in fixed-size blocks of
// PostingBlockSize entries. Record IDs arrive in strictly ascending
// order (the index inserts records as they are appended), so deltas are
// small positive integers and typically occupy one byte in dense lists —
// a 3–4× footprint reduction before accounting for slice slack.
//
// Each block boundary carries the largest ID of the finished block (the
// next block's delta base) and the byte offset where the next block's
// deltas start, so any block decodes on its own.
// The first block needs neither (offset 0, and a single-block list's max
// is the list's last ID), so a list only pays metadata from its second
// block on — prefix postings are frequently short, and a short list is
// just its delta bytes. The probe phase enumerates entries strictly
// below the probing record's ID (decodeLess), so it stops decoding at
// the first entry past that bound and never touches a later block.
const (
	postingBlockShift = 7
	// PostingBlockSize is the number of IDs per compressed block.
	PostingBlockSize = 1 << postingBlockShift
	postingBlockMask = PostingBlockSize - 1
)

// postingBlock is the boundary metadata between block i and block i+1:
// the byte offset of block i+1's first delta and the largest ID of
// block i (block i+1's delta base).
type postingBlock struct {
	off uint32
	max int32
}

// PostingList is an append-only block-compressed list of strictly
// ascending int32 IDs. The zero value is an empty list.
type PostingList struct {
	data []byte
	// meta[i] is the boundary between block i and block i+1; a list of
	// ≤ PostingBlockSize entries has none.
	meta []postingBlock
	last int32
	n    int
}

// Len returns the number of IDs in the list.
func (p *PostingList) Len() int { return p.n }

// SizeBytes returns the list's compressed footprint: encoded deltas plus
// block metadata. The equivalent flat []int32 footprint is 4·Len.
func (p *PostingList) SizeBytes() int {
	return len(p.data) + len(p.meta)*8
}

// numBlocks returns the number of (possibly partial) blocks.
func (p *PostingList) numBlocks() int {
	return (p.n + postingBlockMask) >> postingBlockShift
}

// Append adds an ID, which must be strictly greater than every ID
// already in the list.
func (p *PostingList) Append(id int32) {
	prev := p.last
	if p.n == 0 {
		prev = -1
	} else if id <= prev {
		panic("simjoin: posting IDs must be strictly ascending")
	}
	if p.n > 0 && p.n&postingBlockMask == 0 {
		// Crossing into a new block: record the finished block's boundary.
		p.meta = append(p.meta, postingBlock{off: uint32(len(p.data)), max: prev})
	}
	p.data = binary.AppendUvarint(p.data, uint64(id-prev))
	p.last = id
	p.n++
}

// blockOff returns the byte offset of block b's first delta.
func (p *PostingList) blockOff(b int) uint32 {
	if b == 0 {
		return 0
	}
	return p.meta[b-1].off
}

// blockBase returns the ID every delta in block b accumulates from: the
// previous block's max, or -1 for the first block.
func (p *PostingList) blockBase(b int) int32 {
	if b == 0 {
		return -1
	}
	return p.meta[b-1].max
}

// blockLen returns the number of entries stored in block b.
func (p *PostingList) blockLen(b int) int {
	cnt := p.n - b<<postingBlockShift
	if cnt > PostingBlockSize {
		cnt = PostingBlockSize
	}
	return cnt
}

// decodeLess decodes block b into buf up to the first entry at or past
// bound and returns the entries below it: a full block, a block cut at
// the bound, or, past the last block, nothing. A scan of the entries
// below a bound is therefore over at the first result shorter than
// PostingBlockSize, and never decodes a block that lies wholly past it.
func (p *PostingList) decodeLess(b int, bound int32, buf *[PostingBlockSize]int32) []int32 {
	if b >= p.numBlocks() {
		return nil
	}
	cnt := p.blockLen(b)
	acc := p.blockBase(b)
	data := p.data[p.blockOff(b):]
	for k := 0; k < cnt; k++ {
		// Inline uvarint decode: deltas are almost always one byte.
		d := uint32(data[0])
		if d < 0x80 {
			data = data[1:]
		} else {
			v, w := binary.Uvarint(data)
			d = uint32(v)
			data = data[w:]
		}
		acc += int32(d)
		if acc >= bound {
			return buf[:k]
		}
		buf[k] = acc
	}
	return buf[:cnt]
}
