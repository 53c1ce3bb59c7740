package engine

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// SortByKey is a stable sort by key: keys drawn from narrow and wide
// ranges, with many ties, come out as slices.SortStableFunc orders them.
func TestSortByKeyIsStable(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(500)
		keys, vals := make([]uint64, n), make([]int32, n)
		type kv struct {
			k uint64
			v int32
		}
		want := make([]kv, n)
		for i := range keys {
			keys[i] = uint64(rng.Intn(20)) << (8 * rng.Intn(8))
			if seed%3 == 0 {
				keys[i] = rng.Uint64()
			}
			vals[i] = int32(i)
			want[i] = kv{keys[i], vals[i]}
		}
		slices.SortStableFunc(want, func(a, b kv) int { return cmp.Compare(a.k, b.k) })
		SortByKey(keys, vals)
		for i, w := range want {
			if keys[i] != w.k || vals[i] != w.v {
				t.Fatalf("seed %d: position %d holds (%x, %d); want (%x, %d)", seed, i, keys[i], vals[i], w.k, w.v)
			}
		}
	}
}
