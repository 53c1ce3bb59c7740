package simjoin

import (
	"sync/atomic"

	"github.com/crowder/crowder/internal/engine"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/similarity"
)

// Sharded is the shared-nothing partition of Index: the postings are
// split across N shards keyed by a stable hash of each record's token
// set (its blocking signature), and one delta's index-then-probe runs
// concurrently with one goroutine per shard. Where Index.streamScan
// parallelizes probes but funnels every candidate through a single
// channel to one consumer, a Sharded delta gives each shard its own
// emission stream (UpdateScatter) feeding per-shard accumulators that
// are merged once at the end — the scaling bottleneck moves from the
// funnel to the merge, which is O(survivors), not O(candidates).
//
// Partitioning is by record, not by token: a record's full prefix is
// inserted into exactly one shard (its owner), and every probing record
// probes all shards. A qualifying pair {j, i} (j < i) therefore
// surfaces in exactly one shard — shard(j), where j's postings live —
// so the union of the shard streams is exactly the single-index
// candidate multiset with no cross-shard deduplication. The shard key
// hashes the record's sorted token IDs (content, not arrival order), so
// ownership is identical in a k-batch session and a from-scratch run.
//
// Exchange stage: probing is the exchange. Shards never copy postings
// to each other; a boundary probe — a record whose prefix tokens hit
// postings owned by another shard — is routed by running the probe loop
// of every record against every shard's own postings, each shard
// scanning only the slots it owns. The ordering weights and the prefix
// arena are shared read-only across shards, frozen per delta exactly as
// Index freezes them, so a record's prefix (and thus the candidate set)
// is bit-identical to the single-index path.
//
// Token slots are remapped densely per shard (tokIdx): a shard stores
// posting lists only for the tokens that actually own records in it,
// so N shards cost O(total prefix tokens) — not N× the token universe.
//
// The resolver does not use it: on this code base the single Index,
// whose tokenising, prefix sort and probe are already parallel, is
// faster. Sharded survives as the perf ledger's sharded-vs-single probe.
//
// A Sharded index is not safe for concurrent use; callers serialize
// UpdateScatter calls, and the concurrency inside one update is managed
// here.
type Sharded struct {
	// joinState is shared read-only by every shard goroutine during a
	// delta; over the same append sequence it is identical to Index's.
	joinState
	shards []joinShard
}

// joinShard is one shard's owned state. Every field is touched by
// exactly one goroutine during an update, so shards need no locks.
type joinShard struct {
	// tokIdx remaps global token IDs to dense local posting slots; only
	// tokens appearing in an owned record's prefix get a slot.
	tokIdx   map[int32]int32
	postings []PostingList
	// members lists the shard's owned records, ascending.
	members []int32
	// probeScratch is the shard's dedup stamps and block-decode buffer;
	// probe indices strictly increase across updates, so the stamps are
	// never cleared.
	probeScratch
}

// ShardOfTokens returns the shard owning a record whose sorted token-ID
// set is ids: an FNV-1a hash of the IDs modulo shards. The key is the
// record's blocking signature — pure content, independent of arrival
// order and of the frozen prefix weights — so a record lands on the
// same shard in every batching. shards ≤ 1 returns 0.
func ShardOfTokens(ids []int32, shards int) int {
	if shards <= 1 {
		return 0
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, id := range ids {
		for s := 0; s < 32; s += 8 {
			h ^= uint64(uint8(id >> s))
			h *= prime64
		}
	}
	return int(h % uint64(shards))
}

// NewSharded creates an empty sharded join index over the table with
// the given shard count (values < 1 are treated as 1). No records are
// indexed until the first update.
func NewSharded(t *record.Table, shards int, opts Options) *Sharded {
	if shards < 1 {
		shards = 1
	}
	sx := &Sharded{joinState: joinState{t: t, opts: opts}, shards: make([]joinShard, shards)}
	for s := range sx.shards {
		sx.shards[s].tokIdx = make(map[int32]int32)
	}
	return sx
}

// Indexed returns the number of records absorbed so far.
func (sx *Sharded) Indexed() int { return sx.n }

// PostingsBytes returns the compressed footprint of all shards'
// posting lists in bytes.
func (sx *Sharded) PostingsBytes() int {
	total := 0
	for s := range sx.shards {
		sh := &sx.shards[s]
		for i := range sh.postings {
			total += sh.postings[i].SizeBytes()
		}
	}
	return total
}

// PostingsEntries returns the total number of posting entries indexed
// across all shards.
func (sx *Sharded) PostingsEntries() int {
	total := 0
	for s := range sx.shards {
		sh := &sx.shards[s]
		for i := range sh.postings {
			total += sh.postings[i].Len()
		}
	}
	return total
}

// UpdateScatter indexes the records appended since the last update and
// streams every admissible candidate pair {old or new, new} at or above
// the threshold to sink, tagged with the shard that found it. The union
// over shards is exactly the candidate multiset Index.UpdateSeq would
// emit for the same delta, each pair exactly once.
//
// sink is called concurrently, but calls for one shard are always
// serial and from a single goroutine, so per-shard accumulators indexed
// by the shard tag need no synchronization; the token-less empty-set
// pairs are delivered for shard 0 after every shard goroutine has
// joined. Returning false stops the scan; like Index, the delta is
// still absorbed and its remaining candidates are discarded.
//
// The delta runs the shared prepare step, then every shard inserts the
// prefixes of the records it owns and probes every new record against
// its own postings.
func (sx *Sharded) UpdateScatter(sink func(shard int, sp ScoredPair) bool) {
	ids, lo, n := sx.prepare(sx.t.Len())
	if n <= lo {
		return
	}
	t, ns := sx.t, len(sx.shards)

	// Assign each new record to its owning shard by content hash.
	owner := make([]int32, n-lo)
	for i := lo; i < n; i++ {
		owner[i-lo] = int32(ShardOfTokens(ids[i], ns))
	}

	var stop atomic.Bool
	emitFor := func(s int) func(ScoredPair) bool {
		return func(sp ScoredPair) bool {
			if !sink(s, sp) {
				stop.Store(true)
				return false
			}
			return true
		}
	}

	if sx.opts.Threshold <= 0 {
		// Every pair survives a non-positive threshold (see
		// Index.deltaAllPairs): shard s scores its own members j < i
		// against every new record i, which over all shards is every
		// admissible pair with a new endpoint.
		sx.scanShards(func(s int) {
			sh := &sx.shards[s]
			for i := lo; i < n; i++ {
				if owner[i-lo] == int32(s) {
					sh.members = append(sh.members, int32(i))
				}
			}
			emit := emitFor(s)
			for i := lo; i < n; i++ {
				if stop.Load() {
					return
				}
				i32 := int32(i)
				for _, j32 := range sh.members {
					if j32 >= i32 {
						break
					}
					if !sx.opts.crossOK(t, record.ID(j32), record.ID(i)) {
						continue
					}
					if !emit(ScoredPair{
						Pair:       record.Pair{A: record.ID(j32), B: record.ID(i)},
						Likelihood: similarity.Jaccard(ids[i], ids[j32]),
					}) {
						return
					}
				}
			}
		})
		return
	}

	// Each shard inserts its owned records' prefixes, then probes every
	// new record against its own postings. Inserts precede probes within
	// a shard, and the probe bound j < i excludes records inserted after
	// i, so the fused loop needs no cross-shard barrier: pair {j, i} is
	// found by shard(j) whether j predates the delta or arrived in it.
	sx.scanShards(func(s int) {
		sh := &sx.shards[s]
		for i := lo; i < n; i++ {
			if owner[i-lo] != int32(s) {
				continue
			}
			sh.members = append(sh.members, int32(i))
			for _, tok := range sx.pref(i, lo) {
				slot, ok := sh.tokIdx[tok]
				if !ok {
					slot = int32(len(sh.postings))
					sh.tokIdx[tok] = slot
					sh.postings = append(sh.postings, PostingList{})
				}
				sh.postings[slot].Append(int32(i))
			}
		}
		sh.stamp = growStamp(sh.stamp, n)
		emit := emitFor(s)
		for i := lo; i < n && !stop.Load(); i++ {
			if !sx.probeShard(sh, ids, i, sx.pref(i, lo), emit) {
				return
			}
		}
	})

	// Token-less records pair with each other globally — they own no
	// postings anywhere — and are delivered for shard 0.
	var yield func(ScoredPair) bool
	if !stop.Load() {
		yield = func(sp ScoredPair) bool { return sink(0, sp) }
	}
	sx.pairEmpties(ids, lo, n, yield)
}

// probeShard scans record i's prefix tokens against one shard's
// postings, emitting every verified pair — the same probe as
// Index.delta restricted to the slots this shard owns.
func (sx *Sharded) probeShard(sh *joinShard, ids [][]int32, i int, pref []int32, emit func(ScoredPair) bool) bool {
	si := sx.summary[i]
	for _, tok := range pref {
		if slot, hit := sh.tokIdx[tok]; hit && !sx.probeList(&sh.postings[slot], ids, i, si, &sh.probeScratch, emit) {
			return false
		}
	}
	return true
}

// scanShards runs fn(s) for every shard, fanning across at most
// Options.Parallelism goroutines (0 = GOMAXPROCS). Each shard is
// handled by exactly one goroutine, preserving the single-writer
// invariant on shard state and sink calls.
func (sx *Sharded) scanShards(fn func(s int)) {
	ns := len(sx.shards)
	workers := engine.WorkerCount(sx.opts.Parallelism, ns)
	engine.Workers(workers, func(w int) {
		for s := w; s < ns; s += workers {
			fn(s)
		}
	})
}

// UpdateRanked absorbs the delta and returns its candidates ranked
// under CompareScored, truncated to the k best (k ≤ 0 keeps all):
// each shard's stream feeds its own bounded top-K heap, and the
// per-shard survivors are merged through one final heap. Because the
// heaps are pure functions of their input multisets and the shard
// streams union to the single-index candidate multiset, the result is
// bit-identical to ranking Index.UpdateSeq through one heap — at every
// shard count and parallelism level.
func (sx *Sharded) UpdateRanked(k int) []ScoredPair {
	ns := len(sx.shards)
	ranks := make([]*engine.TopK[ScoredPair], ns)
	for s := range ranks {
		ranks[s] = engine.NewTopK(k, CompareScored)
	}
	sx.UpdateScatter(func(s int, sp ScoredPair) bool {
		ranks[s].Push(sp)
		return true
	})
	lists := make([][]ScoredPair, ns)
	for s, r := range ranks {
		lists[s] = r.Ranked()
	}
	return engine.MergeRanked(k, CompareScored, lists...)
}
