package crowd

import (
	"math/rand"
	"sync"
)

// exactSource is math/rand's generator, lazily seeded: it draws exactly
// what rand.NewSource(seed) draws, but Seed costs O(1) rather than 1 841
// dependent multiply-mod steps. math/rand seeds word i of its 607-word
// register from x_k = s·48271^k mod (2³¹−1), s the reduced seed:
// vec[i] = x_{21+3i}<<40 ^ x_{22+3i}<<20 ^ x_{23+3i} ^ rngCooked[i]. A
// draw adds vec[tap] into vec[feed], both walking down the register, so
// draw k (from 1) reads its feed word fresh while k ≤ 334 and its tap
// word fresh while k ≤ 273; every later read finds a word a draw wrote.
type exactSource struct {
	tap, feed, drawn int
	s                uint64
	vec              [rngLen]int64
}

const (
	rngLen = 607
	rngTap = 273
	rngMod = 1<<31 - 1
)

var (
	rngPow    [3*rngLen + 21]uint32 // 48271^k mod (2³¹−1)
	rngCooked [rngLen]int64         // math/rand's unexported table
)

func init() {
	rngPow[0] = 1
	for k := 1; k < len(rngPow); k++ {
		rngPow[k] = mulMod(uint64(rngPow[k-1]), 48271)
	}
	rngCooked = recoverCooked(1)
}

// mulMod returns a·b mod (2³¹−1) for a, b below it.
func mulMod(a, b uint64) uint32 {
	p := a * b
	if p = p&rngMod + p>>31; p >= rngMod {
		p -= rngMod
	}
	return uint32(p)
}

// reduceSeed maps a seed to the multiplier math/rand seeds with.
func reduceSeed(seed int64) uint64 {
	if seed %= rngMod; seed < 0 {
		seed += rngMod
	}
	if seed == 0 {
		seed = 89482311
	}
	return uint64(seed)
}

// seededWord is word i of the register seeded with s, rngCooked aside.
func seededWord(s uint64, i int) int64 {
	k := 21 + 3*i
	return int64(mulMod(s, uint64(rngPow[k])))<<40 ^ int64(mulMod(s, uint64(rngPow[k+1])))<<20 ^ int64(mulMod(s, uint64(rngPow[k+2])))
}

// recoverCooked recovers rngCooked from the first 607 outputs o_k of
// rand.NewSource(seed). Draw k adds vec[607−k] into vec[334−k] (mod
// 607), so o_k − o_{k−273} is an original word for k = 274…607 —
// vec[0..60] and vec[334..606] — and o_k − vec[607−k] is vec[334−k]
// for k = 1…273.
func recoverCooked(seed int64) (cooked [rngLen]int64) {
	src := rand.NewSource(seed).(rand.Source64)
	var o [rngLen + 1]int64
	for k := 1; k <= rngLen; k++ {
		o[k] = int64(src.Uint64())
	}
	var vec [rngLen]int64
	for k := rngTap + 1; k <= rngLen; k++ {
		vec[(2*rngLen-rngTap-k)%rngLen] = o[k] - o[k-rngTap]
	}
	for k := 1; k <= rngTap; k++ {
		vec[rngLen-rngTap-k] = o[k] - vec[rngLen-k]
	}
	for i := range vec {
		cooked[i] = vec[i] ^ seededWord(reduceSeed(seed), i)
	}
	return cooked
}

// Seed resets the source to the state rand.NewSource(seed) starts in.
func (r *exactSource) Seed(seed int64) {
	r.tap, r.feed, r.drawn, r.s = 0, rngLen-rngTap, 0, reduceSeed(seed)
}

// Uint64 is math/rand's draw, seeding the words it reads on first touch.
func (r *exactSource) Uint64() uint64 {
	if r.tap--; r.tap < 0 {
		r.tap += rngLen
	}
	if r.feed--; r.feed < 0 {
		r.feed += rngLen
	}
	if r.drawn < rngLen-rngTap {
		r.vec[r.feed] = seededWord(r.s, r.feed) ^ rngCooked[r.feed]
		if r.drawn < rngTap {
			r.vec[r.tap] = seededWord(r.s, r.tap) ^ rngCooked[r.tap]
		}
		r.drawn++
	}
	x := r.vec[r.feed] + r.vec[r.tap]
	r.vec[r.feed] = x
	return uint64(x)
}

func (r *exactSource) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }

// simRands recycles the simulator's generators: a HIT or a pair re-seeds
// one (rand.Rand.Seed) instead of allocating a 4.9 KB math/rand source.
var simRands = sync.Pool{New: func() any { return rand.New(new(exactSource)) }}
