package crowd

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// The cooked table recovered from a second seed's output is the one
// recovered at init from seed 1: the recovery inverts math/rand's
// seeding rather than fitting one stream.
func TestRecoverCookedIsSeedIndependent(t *testing.T) {
	for _, seed := range []int64{2, -7, 1 << 40} {
		if got := recoverCooked(seed); got != rngCooked {
			t.Fatalf("seed %d: recovered table differs from seed 1's", seed)
		}
	}
}

// FuzzExactSource drives a math/rand generator and one over exactSource
// through the same op sequence — every draw kind, and re-seeds of a used
// source — and requires the same value from each op.
func FuzzExactSource(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, rngMod, rngMod - 1, 89482311, 1 << 62} {
		f.Add(seed, []byte{0, 1, 2, 3, 4, 5})
	}
	f.Add(int64(7), []byte{5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 4, 4, 4, 4, 4, 4, 4, 4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 5, 3})
	// Long runs: past the lazily seeded first 334 draws and the register's
	// 607 words, then a re-seed of the used source and again.
	long := append(slices.Repeat([]byte{0xf0, 0xf1, 0xf2, 0xf3}, 12), 5)
	f.Add(int64(-3), append(long, long...))
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		want := rand.New(rand.NewSource(seed))
		got := rand.New(new(exactSource))
		got.Seed(seed)
		draws := 0
		for i, op := range ops {
			// Long ops run the streams past the register's 607 words.
			for rep := 0; rep < 1+int(op>>4); rep++ {
				var a, b int64
				switch op % 6 {
				case 0:
					a, b = want.Int63(), got.Int63()
				case 1:
					a, b = int64(want.Uint64()), int64(got.Uint64())
				case 2:
					a, b = int64(math.Float64bits(want.Float64())), int64(math.Float64bits(got.Float64()))
				case 3:
					n := 1 + i*rep%1000
					a, b = int64(want.Intn(n)), int64(got.Intn(n))
				case 4:
					p, q := want.Perm(1+i%130), got.Perm(1+i%130)
					for k := range p {
						if p[k] != q[k] {
							t.Fatalf("op %d: Perm differs at %d after %d draws", i, k, draws)
						}
					}
				case 5:
					seed += int64(op) * 0x9e3779b97f4a7c1
					want.Seed(seed)
					got.Seed(seed)
				}
				if a != b {
					t.Fatalf("op %d (%d): %d, math/rand %d, after %d draws", i, op%6, b, a, draws)
				}
				draws++
			}
		}
	})
}

// 3 000 draws from each of ten seeds — zero, negatives, the modulus and
// its neighbours among them — equal math/rand's.
func TestExactSourceMatchesMathRand(t *testing.T) {
	src := new(exactSource)
	for _, seed := range []int64{0, 1, -1, 42, -1 << 40, rngMod, rngMod - 1, rngMod + 1, 89482311, 1<<63 - 1} {
		want := rand.NewSource(seed).(rand.Source64)
		src.Seed(seed)
		for k := 0; k < 3000; k++ {
			if w, g := want.Uint64(), src.Uint64(); w != g {
				t.Fatalf("seed %d draw %d: %d, math/rand %d", seed, k, g, w)
			}
		}
	}
}

// pickDistinct draws what rng.Perm draws and returns its first n entries.
func TestPickDistinctMatchesPerm(t *testing.T) {
	pop := NewPopulation(3, PopulationOptions{Size: 50})
	for seed := int64(0); seed < 200; seed++ {
		n := 1 + int(seed%50)
		want := rand.New(rand.NewSource(seed))
		got := rand.New(rand.NewSource(seed))
		perm := want.Perm(pop.Size())
		for i, w := range pickDistinct(pop, n, got) {
			if w != pop.Workers[perm[i]] {
				t.Fatalf("seed %d: worker %d is %d, Perm gives %d", seed, i, w.ID, perm[i])
			}
		}
		if want.Int63() != got.Int63() {
			t.Fatalf("seed %d: the streams diverge after the pick", seed)
		}
	}
}
