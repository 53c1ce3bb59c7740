package engine

import "slices"

// TopK is a bounded ranking collector: it consumes a stream of items and
// retains the k best under a total-order comparator, using O(k) memory
// regardless of stream length. It is the consumer half of a streaming
// producer such as simjoin.Index.UpdateSeq — the producer never
// materializes its output and the collector never holds more than k items,
// so the pair never allocates proportionally to the candidate count.
//
// The retained items form a worst-at-root heap: admitting an item into a
// full collector is O(log k) and items worse than the current root are
// rejected in O(1). Because cmp is a total order, the retained set — and
// therefore Ranked's output — is a pure function of the multiset of
// pushed items, independent of push order; a nondeterministically
// interleaved parallel stream still ranks deterministically.
//
// k ≤ 0 means unbounded: every item is retained and Ranked sorts them,
// which is exactly the materializing path the bound generalizes.
type TopK[T any] struct {
	k     int
	cmp   func(a, b T) int
	items []T
	// heaped is whether items is heap-ordered yet; the collector
	// accumulates plainly until it first exceeds k.
	heaped bool
}

// NewTopK creates a collector retaining the k smallest items under cmp
// (cmp orders best first, so "smallest" is "best"; pass the ranking
// comparator directly). k ≤ 0 retains everything.
func NewTopK[T any](k int, cmp func(a, b T) int) *TopK[T] {
	return &TopK[T]{k: k, cmp: cmp}
}

// Len returns the number of items currently retained (≤ k when bounded).
func (t *TopK[T]) Len() int { return len(t.items) }

// Push offers an item to the collector.
func (t *TopK[T]) Push(v T) {
	if t.k <= 0 || len(t.items) < t.k {
		t.items = append(t.items, v)
		if t.heaped {
			t.up(len(t.items) - 1)
		}
		return
	}
	if !t.heaped {
		t.heapify()
	}
	// Root is the worst retained item; replace it if v ranks better.
	if t.cmp(v, t.items[0]) >= 0 {
		return
	}
	t.items[0] = v
	t.down(0)
}

// Ranked returns the retained items best-first and resets the collector.
// The result is sorted by cmp, so for a bounded collector it is the first
// k items of the fully sorted stream — bit-identical to sorting a
// materialized slice and truncating.
func (t *TopK[T]) Ranked() []T {
	out := t.items
	t.items = nil
	t.heaped = false
	slices.SortFunc(out, t.cmp)
	return out
}

// MergeRanked merges several independently collected lists into one
// ranked top-k result under cmp (k ≤ 0 keeps everything). The inputs
// need not be sorted; the output is the k best items of the combined
// multiset, sorted best-first. Because a bounded collector only ever
// discards items worse than k retained ones, merging per-shard top-k
// survivors through another top-k collector is bit-identical to ranking
// the union stream through a single collector. simjoin.Sharded's ranked
// update, which the perf ledger probes, merges its per-shard heaps with
// it.
func MergeRanked[T any](k int, cmp func(a, b T) int, lists ...[]T) []T {
	t := NewTopK(k, cmp)
	for _, l := range lists {
		for _, v := range l {
			t.Push(v)
		}
	}
	return t.Ranked()
}

// worse reports whether item i ranks strictly worse than item j.
func (t *TopK[T]) worse(i, j int) bool { return t.cmp(t.items[i], t.items[j]) > 0 }

func (t *TopK[T]) heapify() {
	for i := len(t.items)/2 - 1; i >= 0; i-- {
		t.down(i)
	}
	t.heaped = true
}

func (t *TopK[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !t.worse(i, parent) {
			break
		}
		t.items[i], t.items[parent] = t.items[parent], t.items[i]
		i = parent
	}
}

func (t *TopK[T]) down(i int) {
	n := len(t.items)
	for {
		worst := i
		if l := 2*i + 1; l < n && t.worse(l, worst) {
			worst = l
		}
		if r := 2*i + 2; r < n && t.worse(r, worst) {
			worst = r
		}
		if worst == i {
			return
		}
		t.items[i], t.items[worst] = t.items[worst], t.items[i]
		i = worst
	}
}
