package simjoin

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomAscending returns n strictly ascending int32s with geometric-ish
// gaps, crossing many block boundaries for n > PostingBlockSize.
func randomAscending(rng *rand.Rand, n, maxGap int) []int32 {
	out := make([]int32, n)
	v := int32(0)
	for i := range out {
		v += int32(1 + rng.Intn(maxGap))
		out[i] = v
	}
	return out
}

func buildPostingList(ids []int32) *PostingList {
	var p PostingList
	for _, id := range ids {
		p.Append(id)
	}
	return &p
}

// collectLess returns the list's IDs strictly below bound, read block by
// block the way the probe kernel reads them.
func collectLess(p *PostingList, bound int32) []int32 {
	var buf [PostingBlockSize]int32
	var out []int32
	for b := 0; ; b++ {
		js := p.decodeLess(b, bound, &buf)
		out = append(out, js...)
		if len(js) < PostingBlockSize {
			return out
		}
	}
}

func TestPostingListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, PostingBlockSize - 1, PostingBlockSize, PostingBlockSize + 1, 5000} {
		ids := randomAscending(rng, n, 300)
		p := buildPostingList(ids)
		if p.Len() != n {
			t.Fatalf("n=%d: Len=%d", n, p.Len())
		}
		if got := collectLess(p, math.MaxInt32); !slices.Equal(got, ids) {
			t.Fatalf("n=%d: drain mismatch", n)
		}
	}
}

func TestPostingListCompression(t *testing.T) {
	// Dense IDs (delta 1) must encode in ~1 byte each; the flat []int32
	// representation costs 4. Require at least a 2× win after block
	// metadata overhead.
	var p PostingList
	for i := int32(0); i < 10000; i++ {
		p.Append(i)
	}
	flat := 4 * p.Len()
	if p.SizeBytes()*2 > flat {
		t.Fatalf("compressed %dB vs flat %dB: less than 2x", p.SizeBytes(), flat)
	}
}

func TestPostingListAppendPanicsOnNonAscending(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-ascending append")
		}
	}()
	var p PostingList
	p.Append(5)
	p.Append(5)
}

func TestDecodeLessMatchesFilter(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ids := randomAscending(rng, 3000, 50)
	p := buildPostingList(ids)
	bounds := []int32{0, ids[0], ids[0] + 1, ids[PostingBlockSize-1], ids[PostingBlockSize-1] + 1, ids[PostingBlockSize], ids[len(ids)-1], ids[len(ids)-1] + 1}
	for trial := 0; trial < 200; trial++ {
		bounds = append(bounds, int32(rng.Intn(int(ids[len(ids)-1])+100)))
	}
	for _, bound := range bounds {
		got := collectLess(p, bound)
		var want []int32
		for _, v := range ids {
			if v < bound {
				want = append(want, v)
			}
		}
		if !slices.Equal(got, want) {
			t.Fatalf("bound=%d: got %d entries want %d", bound, len(got), len(want))
		}
	}
}
