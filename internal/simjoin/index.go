package simjoin

import (
	"iter"
	"slices"
	"sync"

	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/similarity"
)

// Index is a persistent, incrementally maintained prefix-filtered join
// index over a table. It turns the one-shot Join into a streaming
// operation: each Update call indexes and probes only the records appended
// to the table since the previous call, so resolving a delta of d records
// against a table of n costs O(d·candidates) instead of re-scanning all
// n·(n−1)/2 pairs. Calling Update on a fresh Index with the table fully
// loaded is exactly the batch join.
//
// Completeness across deltas relies on every record's prefix being taken
// under one immutable total token order. Batch prefix filtering orders
// tokens by global frequency, but global frequencies drift as records
// arrive, so the Index freezes each token's weight the first time the
// token is indexed (its frequency within that delta; the first delta —
// usually the whole initial table — reproduces the batch ordering
// exactly). Frozen weights keep every already-built prefix valid: a
// record's prefix depends only on the relative order of its own tokens,
// and that order never changes once assigned. Tokens first seen in later
// deltas carry their in-delta frequency, which is typically small, so new
// rare tokens still sort toward the front of prefixes where they prune
// best.
//
// Storage and access are built for scale: postings are block-compressed
// (delta-encoded uvarints in independently decodable blocks, see
// PostingList) instead of flat []int32 slices, probes stop decoding at
// the probing record's ID and reject most collisions on a contiguous
// per-record summary (joinState.summary) before touching a dedup stamp
// or a token array, and the exact score gallops when token-set sizes are
// skewed. Candidates stream out of UpdateSeq
// one at a time — Update is the materializing wrapper — so a consumer
// such as a bounded top-K ranking heap never holds the full candidate
// set.
//
// An Index is not safe for concurrent use; the owning resolver serializes
// Update calls. The table must only grow (append-only), matching the
// contract of record.Table's token cache.
type Index struct {
	joinState

	// postings[tok] lists, ascending and block-compressed, the records
	// whose prefix contains tok. Only prefix tokens are indexed
	// (standard prefix filtering).
	postings []PostingList

	// scratch is the pool of per-worker probe state (dedup stamps and
	// block-decode buffers), reused across Update calls so the
	// steady-state delta path stops allocating per call. Stamp entries
	// record the probing record index that last considered a record;
	// probe indices strictly increase across a session's Updates, so a
	// stale entry can never collide with a live probe and the arrays
	// never need clearing.
	scratchMu sync.Mutex
	scratch   []*probeScratch
}

// probeScratch is one worker's reusable probe state.
type probeScratch struct {
	// stamp[j] = latest probe i that already considered pair (j, i),
	// deduplicating multi-token collisions without a hash set.
	stamp []int32
	// dbuf is the posting-block decode buffer.
	dbuf [PostingBlockSize]int32
}

// NewIndex creates an empty join index over the table. No records are
// indexed until the first Update call.
func NewIndex(t *record.Table, opts Options) *Index {
	return &Index{joinState: joinState{t: t, opts: opts}}
}

// Indexed returns the number of records the index has absorbed so far.
func (ix *Index) Indexed() int { return ix.n }

// PostingsBytes returns the compressed footprint of the posting lists in
// bytes. The flat-slice representation this replaced would occupy
// 4·(total entries) before append slack.
func (ix *Index) PostingsBytes() int {
	total := 0
	for i := range ix.postings {
		total += ix.postings[i].SizeBytes()
	}
	return total
}

// PostingsEntries returns the total number of posting entries indexed.
func (ix *Index) PostingsEntries() int {
	total := 0
	for i := range ix.postings {
		total += ix.postings[i].Len()
	}
	return total
}

// getScratch pops (or creates) a probe scratch whose stamp covers n
// records. Stale stamp values need no clearing — see the scratch field.
func (ix *Index) getScratch(n int) *probeScratch {
	ix.scratchMu.Lock()
	var sc *probeScratch
	if k := len(ix.scratch); k > 0 {
		sc = ix.scratch[k-1]
		ix.scratch = ix.scratch[:k-1]
	}
	ix.scratchMu.Unlock()
	if sc == nil {
		sc = &probeScratch{}
	}
	sc.stamp = growStamp(sc.stamp, n)
	return sc
}

// growStamp extends a stamp array to cover n records. Capacity grows
// geometrically, so a session of many small deltas reallocates it
// O(log n) times instead of copying the whole array on every delta.
func growStamp(stamp []int32, n int) []int32 {
	if len(stamp) >= n {
		return stamp
	}
	return slices.Grow(stamp, n-len(stamp))[:n]
}

func (ix *Index) putScratch(sc *probeScratch) {
	ix.scratchMu.Lock()
	ix.scratch = append(ix.scratch, sc)
	ix.scratchMu.Unlock()
}

// Update indexes the records appended to the table since the last call
// and returns every admissible pair {old or new, new} whose likelihood is
// at least the threshold, sorted by likelihood descending. Pairs between
// two already-indexed records are never re-emitted: across a sequence of
// Updates every qualifying pair of the final table is returned exactly
// once, and the union of all Update results equals the batch Join of the
// final table.
//
// Update is the materializing wrapper around UpdateSeq: it drains the
// candidate stream and canonically sorts it. Callers that can rank or
// filter incrementally should consume UpdateSeq instead.
func (ix *Index) Update() []ScoredPair {
	var out []ScoredPair
	for sp := range ix.UpdateSeq() {
		out = append(out, sp)
	}
	SortScored(out)
	return out
}

// UpdateSeq indexes the records appended to the table since the last
// call and streams every admissible candidate pair {old or new, new}
// whose likelihood is at least the threshold, one at a time. The
// emission order is unspecified (shards may interleave); consumers
// needing the canonical likelihood ranking feed a collector with a total
// order — Update, or a bounded top-K heap — whose output is then
// deterministic at every parallelism level.
//
// The sequence is single-use and carries the index's side effects: the
// delta is absorbed when the sequence is iterated, so iterate it exactly
// once. Breaking early is safe (workers are cancelled) but discards the
// delta's remaining candidates — they will not reappear in later
// Updates. The delta itself is absorbed in full, as by Absorb, its
// token-less records included.
func (ix *Index) UpdateSeq() iter.Seq[ScoredPair] {
	return func(yield func(ScoredPair) bool) {
		ix.delta(ix.t.Len(), yield)
	}
}

// delta absorbs table records [Indexed(), upto): the shared prepare
// step, then the prefixes go into the postings, then — unless yield is
// nil, which is Absorb — every new record probes them and candidates
// stream to yield.
func (ix *Index) delta(upto int, yield func(ScoredPair) bool) {
	ids, lo, n := ix.prepare(upto)
	if n <= lo {
		return
	}
	if ix.opts.Threshold <= 0 {
		// Every pair survives a non-positive threshold, so the prefix
		// index buys nothing: score new×all directly.
		if yield != nil {
			ix.deltaAllPairs(ids, lo, n, yield)
		}
		return
	}

	// Insert the new records' prefixes before any probing, so pairs
	// between two records of the same delta are found too (the probe of
	// record i only looks at postings entries j < i). A delta with no
	// fewer prefix entries than tokens goes token-major: a stable
	// counting sort puts token tok's records in recs[at[tok]:at[tok+1]]
	// and each list takes its appends in one run.
	if grow := len(ix.weight) - len(ix.postings); grow > 0 {
		ix.postings = slices.Grow(ix.postings, grow)[:len(ix.weight)]
	}
	if len(ix.prefArena) < len(ix.postings) {
		for i := lo; i < n; i++ {
			for _, tok := range ix.pref(i, lo) {
				ix.postings[tok].Append(int32(i))
			}
		}
	} else {
		at, recs := make([]int32, len(ix.postings)+2), make([]int32, len(ix.prefArena))
		for _, tok := range ix.prefArena {
			at[tok+2]++
		}
		for tok := 2; tok < len(at); tok++ {
			at[tok] += at[tok-1]
		}
		for i := lo; i < n; i++ {
			for _, tok := range ix.pref(i, lo) {
				recs[at[tok+1]] = int32(i)
				at[tok+1]++
			}
		}
		for tok := range ix.postings {
			for _, j := range recs[at[tok]:at[tok+1]] {
				ix.postings[tok].Append(j)
			}
		}
	}

	// probe scans record i's prefix tokens' postings for candidates,
	// emitting every verified pair (see joinState.probeList).
	probe := func(i int, sc *probeScratch, emit func(ScoredPair) bool) bool {
		si := ix.summary[i]
		for _, tok := range ix.pref(i, lo) {
			if !ix.probeList(&ix.postings[tok], ids, i, si, sc, emit) {
				return false
			}
		}
		return true
	}
	if yield != nil && !ix.streamScan(lo, n, yield, probe) {
		yield = nil
	}
	ix.pairEmpties(ids, lo, n, yield)
}

// deltaAllPairs scores every admissible pair with a new endpoint; at
// threshold ≤ 0 every pair survives, so prefix filtering buys nothing.
func (ix *Index) deltaAllPairs(ids [][]int32, lo, n int, yield func(ScoredPair) bool) {
	t := ix.t
	probe := func(i int, _ *probeScratch, emit func(ScoredPair) bool) bool {
		for j := 0; j < i; j++ {
			if !ix.opts.crossOK(t, record.ID(j), record.ID(i)) {
				continue
			}
			if !emit(ScoredPair{
				Pair:       record.Pair{A: record.ID(j), B: record.ID(i)},
				Likelihood: similarity.Jaccard(ids[i], ids[j]),
			}) {
				return false
			}
		}
		return true
	}
	ix.streamScan(lo, n, yield, probe)
}

// streamScan fans the probe-record loop out across workers and funnels
// every emitted candidate to yield on the calling goroutine. With one
// worker the probes run inline and candidates pass straight through —
// zero buffering. With several, each worker scans a strided partition of
// [lo, n) with its own pooled scratch and ships candidates in small
// bounded batches over a channel, so memory stays O(workers·batch)
// regardless of how many candidates the delta produces. Returns false if
// yield stopped the scan.
func (ix *Index) streamScan(lo, n int, yield func(ScoredPair) bool, probe func(i int, sc *probeScratch, emit func(ScoredPair) bool) bool) bool {
	workers := ix.opts.workers(n - lo)
	if workers <= 1 {
		sc := ix.getScratch(n)
		defer ix.putScratch(sc)
		for i := lo; i < n; i++ {
			if !probe(i, sc, yield) {
				return false
			}
		}
		return true
	}

	const batchCap = 64
	ch := make(chan []ScoredPair, workers)
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := ix.getScratch(n)
			defer ix.putScratch(sc)
			batch := make([]ScoredPair, 0, batchCap)
			flush := func() bool {
				if len(batch) == 0 {
					return true
				}
				select {
				case ch <- batch:
					batch = make([]ScoredPair, 0, batchCap)
					return true
				case <-done:
					return false
				}
			}
			emit := func(sp ScoredPair) bool {
				batch = append(batch, sp)
				if len(batch) == batchCap {
					return flush()
				}
				return true
			}
			for i := lo + w; i < n; i += workers {
				if !probe(i, sc, emit) {
					return
				}
			}
			flush()
		}(w)
	}
	go func() {
		wg.Wait()
		close(ch)
	}()
	ok := true
	for batch := range ch {
		if !ok {
			continue // drain so workers unblock and exit
		}
		for _, sp := range batch {
			if !yield(sp) {
				ok = false
				close(done)
				break
			}
		}
	}
	return ok
}
