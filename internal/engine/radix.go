package engine

// SortByKey reorders keys ascending and permutes vals with them,
// stably: equal keys keep their vals' order. It is an LSD radix sort,
// one counting pass per key byte that differs between keys, so ranking
// tens of thousands of items costs a few linear passes instead of a
// comparison sort's n·log n calls.
func SortByKey(keys []uint64, vals []int32) {
	var or, and uint64 = 0, ^uint64(0)
	for _, k := range keys {
		or, and = or|k, and&k
	}
	k0, v0 := keys, vals
	tk, tv := make([]uint64, len(keys)), make([]int32, len(vals))
	for shift := 0; shift < 64; shift += 8 {
		if (or^and)>>shift&0xff == 0 {
			continue // every key has this byte
		}
		var at [257]int
		for _, k := range keys {
			at[k>>shift&0xff+1]++
		}
		for d := 1; d < len(at); d++ {
			at[d] += at[d-1]
		}
		for i, k := range keys {
			d := k >> shift & 0xff
			tk[at[d]], tv[at[d]] = k, vals[i]
			at[d]++
		}
		keys, tk, vals, tv = tk, keys, tv, vals
	}
	copy(k0, keys)
	copy(v0, vals)
}
