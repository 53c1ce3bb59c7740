// Package verdicts caches crowd judgments keyed by record pair, the
// persistence layer that lets the incremental resolver skip the
// generate/execute stages for pairs an earlier batch already paid the
// crowd to judge. A long-running resolution service appends records
// continuously; without this cache every delta would re-issue (and re-pay
// for) HITs covering pairs whose answers are already known.
//
// The cache stores the raw per-pair answers rather than only the
// aggregated posterior: Dawid–Skene jointly estimates worker confusion
// matrices from the full answer matrix, so each delta re-aggregates the
// union of cached and fresh answers — cheap relative to crowdsourcing —
// and the posteriors of old pairs keep improving as new evidence about
// the workers arrives. The last aggregated posterior is stored alongside
// for inspection.
package verdicts

import (
	"errors"
	"fmt"
	"iter"
	"math"
	"slices"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/engine"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/transitivity"
)

// Provenance records how a pair's verdict came to be known.
type Provenance int

const (
	// Asked: the crowd judged the pair directly. The zero value, so
	// every pre-transitivity entry is asked by construction.
	Asked Provenance = iota
	// Deduced: the verdict follows from other pairs' crowd answers by
	// transitive closure or negative inference; no HIT was ever issued
	// for the pair. Entry.Deduction holds the proof.
	Deduced
	// Machine: the hybrid router's classifier — trained online from the
	// session's accumulated asked and deduced verdicts — resolved the
	// pair outside the band of uncertainty, or a machine-only session
	// judged it by its likelihood, so no HIT was issued. Like
	// asked verdicts, machine verdicts are first-hand observations (not
	// inferences over other pairs), so transitivity may deduce over them;
	// like every cache entry, they are never re-asked by later deltas.
	Machine
)

func (p Provenance) String() string {
	switch p {
	case Deduced:
		return "deduced-from"
	case Machine:
		return "machine"
	default:
		return "asked"
	}
}

// Entry is the cached state of one judged pair.
type Entry struct {
	// Pair is the canonical pair this entry describes.
	Pair record.Pair
	// Likelihood is the machine similarity computed when the pair first
	// became a candidate.
	Likelihood float64
	// Answers are the raw crowd judgments collected for the pair. Empty
	// for machine and deduced verdicts.
	Answers []aggregate.Answer
	// Posterior is the pair's match probability from the most recent
	// aggregation over the whole cache. For deduced entries it is derived
	// from the proof's supporting pairs, not from Dawid–Skene directly.
	// An aggregated or deduced posterior is derived from the answers, so
	// the owning session recomputes it rather than trusting a restored
	// value; a machine entry's posterior is the router's call, a fact.
	Posterior float64
	// Provenance distinguishes crowd-judged pairs from deduced ones.
	Provenance Provenance
	// Deduction is the proof for a Deduced entry: the deduced verdict,
	// the chain of asked pairs implying it, and (for non-matches) the
	// witness pair separating the clusters. Nil for asked entries.
	Deduction *transitivity.Deduction
}

// Cache is a verdict store keyed by pair: one map of entries and one of
// partial fragments. It is not safe for concurrent mutation; the owning
// resolver serializes mutating access, and concurrent reads are safe
// only while no mutation is in flight — no read method writes. Every
// sequence it returns is in canonical order, never map order.
//
// Besides final verdicts, the cache persists partial assignment sets:
// answers collected by a resolution that was cancelled or failed before
// every HIT completed. Those answers are real, paid-for crowd work — a
// live deployment cannot un-ask a worker — so they survive the failure
// for inspection and accounting, and are dropped only when the pair is
// eventually judged in full (the complete answer set supersedes the
// fragment).
type Cache struct {
	entries map[record.Pair]*Entry
	// sorted and recent hold every entry in canonical pair order, as two
	// sorted runs maintained on insert: a new entry is inserted into the
	// short recent run, which folds into sorted once it outgrows
	// √len(sorted). An insert costs O(√n) amortised in any arrival order,
	// and Entries walks the runs merged instead of sorting.
	sorted, recent []*Entry
	partial        map[record.Pair][]aggregate.Answer
	// aggregator is the identity of the method every posterior in the
	// cache was produced by, set by the first BindAggregator call.
	// Posteriors from different aggregators are not comparable — a
	// majority fraction and an EM posterior mean different things — so
	// the cache refuses to serve a session that would mix them.
	aggregator string
}

// NewCache creates an empty verdict cache.
func NewCache() *Cache {
	return &Cache{
		entries: make(map[record.Pair]*Entry),
		partial: make(map[record.Pair][]aggregate.Answer),
	}
}

// BindAggregator records the aggregator identity whose posteriors the
// cache holds. The first bind sets it; every later bind must name the
// same aggregator, so a cache whose answers were aggregated under one
// method can never be silently re-aggregated under another —
// ResolveDelta re-aggregates cached∪fresh answers with the *session's*
// aggregator, and this is the check that the session and the cache
// agree.
func (c *Cache) BindAggregator(name string) error {
	if name == "" {
		return errors.New("verdicts: empty aggregator identity")
	}
	if c.aggregator == "" {
		c.aggregator = name
		return nil
	}
	if c.aggregator != name {
		return fmt.Errorf("verdicts: cache is bound to aggregator %q; refusing to re-aggregate under %q (one session, one aggregation mode)", c.aggregator, name)
	}
	return nil
}

// Len returns the number of judged pairs.
func (c *Cache) Len() int { return len(c.entries) }

// Has reports whether the pair already has a cache entry.
func (c *Cache) Has(p record.Pair) bool {
	_, ok := c.entries[p]
	return ok
}

// Get returns the entry for the pair, or nil if the pair has never been
// judged.
func (c *Cache) Get(p record.Pair) *Entry {
	return c.entries[p]
}

// Put creates (or returns) the entry for the pair, recording its machine
// likelihood on first insertion. A pair previously known only by
// deduction or by the machine classifier that is now asked directly
// upgrades to an asked entry: the crowd's own judgment supersedes the
// inference or the model's guess.
func (c *Cache) Put(p record.Pair, likelihood float64) *Entry {
	if e, ok := c.entries[p]; ok {
		if e.Provenance == Deduced || e.Provenance == Machine {
			e.Provenance = Asked
			e.Deduction = nil
			if likelihood != 0 {
				e.Likelihood = likelihood
			}
		}
		return e
	}
	e := &Entry{Pair: p, Likelihood: likelihood}
	c.insert(e)
	return e
}

// insert stores an entry for a pair new to the cache.
func (c *Cache) insert(e *Entry) {
	c.entries[e.Pair] = e
	c.addRecent([]*Entry{e})
}

// addRecent merges entries new to the cache, sorted, into the recent run.
func (c *Cache) addRecent(es []*Entry) {
	c.recent = mergeRuns(c.recent, es)
	if len(c.recent)*len(c.recent) > len(c.sorted) {
		c.sorted, c.recent = mergeRuns(c.sorted, c.recent), c.recent[:0]
	}
}

// mergeRuns merges the sorted run src into the sorted run dst, in place
// from the back, and returns the grown dst.
func mergeRuns(dst, src []*Entry) []*Entry {
	i, j := len(dst)-1, len(src)-1
	dst = append(dst, src...)
	for k := len(dst) - 1; j >= 0; k-- {
		if i >= 0 && record.ComparePairs(dst[i].Pair, src[j].Pair) > 0 {
			dst[k], i = dst[i], i-1
		} else {
			dst[k], j = src[j], j-1
		}
	}
	return dst
}

// Entries walks every entry in canonical pair order, merging the runs.
// It only reads the cache.
func (c *Cache) Entries() iter.Seq[*Entry] {
	return func(yield func(*Entry) bool) {
		a, b := c.sorted, c.recent
		for len(a)+len(b) > 0 {
			var e *Entry
			if len(b) == 0 || len(a) > 0 && record.ComparePairs(a[0].Pair, b[0].Pair) < 0 {
				e, a = a[0], a[1:]
			} else {
				e, b = b[0], b[1:]
			}
			if !yield(e) {
				return
			}
		}
	}
}

// sortEntries orders entries by pair: a radix sort on A<<32|B when every
// ID fits in 32 bits, as record IDs do, else a comparison sort.
func sortEntries(es []*Entry) {
	keys, idx := make([]uint64, len(es)), make([]int32, len(es))
	for i, e := range es {
		a, b := uint64(e.Pair.A), uint64(e.Pair.B)
		if a|b > math.MaxUint32 {
			slices.SortFunc(es, func(a, b *Entry) int { return record.ComparePairs(a.Pair, b.Pair) })
			return
		}
		keys[i], idx[i] = a<<32|b, int32(i)
	}
	engine.SortByKey(keys, idx)
	sorted := make([]*Entry, len(es))
	for i, j := range idx {
		sorted[i] = es[j]
	}
	copy(es, sorted)
}

// putMachine records a machine-resolved verdict: the hybrid router's
// classifier scored the pair outside its uncertainty band, so the pair
// is judged without a HIT. The posterior is the router's calibrated
// match confidence (> 0.5 accept, < 0.5 reject). An existing entry of
// any provenance wins — a pair the crowd judged, deduction proved, or
// an earlier delta machine-resolved is never re-judged.
func (c *Cache) putMachine(p record.Pair, likelihood, posterior float64) *Entry {
	if e, ok := c.entries[p]; ok {
		return e
	}
	e := &Entry{Pair: p, Likelihood: likelihood, Posterior: posterior, Provenance: Machine}
	c.insert(e)
	delete(c.partial, p)
	return e
}

// MachineLen returns the number of pairs resolved by the machine
// classifier rather than asked or deduced.
func (c *Cache) MachineLen() int { return c.count(Machine) }

// putDeduced records a deduced verdict with its proof. An existing asked
// entry is never downgraded (the crowd's direct judgment wins); an
// existing deduced entry keeps its original proof. A machine entry is
// replaced: deduction only reaches a machine-resolved pair when the
// router has demoted that verdict for review, and a proof over
// independent evidence supersedes the contested classifier call. The
// initial posterior is the hard deduced verdict (1 or 0); each
// aggregation pass re-derives it from the proof's supporting pairs.
func (c *Cache) putDeduced(likelihood float64, d transitivity.Deduction) *Entry {
	old, ok := c.entries[d.Pair]
	if ok && old.Provenance != Machine {
		return old
	}
	e := &Entry{Pair: d.Pair, Likelihood: likelihood, Provenance: Deduced}
	ded := d
	e.Deduction = &ded
	if d.Match {
		e.Posterior = 1
	}
	if ok {
		*old = *e // the machine entry becomes the deduced one, in place
		e = old
	} else {
		c.insert(e)
	}
	delete(c.partial, d.Pair)
	return e
}

// DeducedLen returns the number of pairs whose verdicts were deduced
// rather than asked.
func (c *Cache) DeducedLen() int { return c.count(Deduced) }

// count returns the number of entries with the given provenance.
func (c *Cache) count(prov Provenance) int {
	n := 0
	for _, e := range c.entries {
		if e.Provenance == prov {
			n++
		}
	}
	return n
}

// GroundEntries returns the entries carrying first-hand verdicts —
// asked or machine-resolved, never deduced — in canonical pair order:
// the observation sequence for rebuilding a deduction graph in a
// hybrid session. With no machine verdicts in the cache it is exactly
// the asked entries.
func (c *Cache) GroundEntries() []*Entry {
	var out []*Entry
	for e := range c.Entries() {
		if e.Provenance == Asked || e.Provenance == Machine {
			out = append(out, e)
		}
	}
	return out
}

// AddAnswers appends crowd answers to their pairs' entries: Apply of an
// Asked window holding only the answers. Answers for pairs without an
// entry create one (with zero likelihood), so cluster HITs that
// incidentally cover extra pairs are still recorded. A pair judged in
// full sheds any partial answers an earlier aborted resolution left
// behind: the complete set supersedes the fragment.
func (c *Cache) AddAnswers(answers []aggregate.Answer) {
	c.Apply(Window{Asked: &AskedWindow{Answers: answers}})
}

// addPartialAnswers records answers from a resolution that ended before
// all of its HITs completed. Partial answers never feed aggregation (the
// retry re-issues the pair's HITs and commits the full set); they persist
// the crowd work already paid for across the failure. A pair's latest
// fragment replaces any earlier one — repeatedly cancelled retries
// re-collect overlapping answers, and keeping every attempt's copy would
// grow without bound and double-count the work.
func (c *Cache) addPartialAnswers(answers []aggregate.Answer) {
	fresh := make(map[record.Pair]bool)
	for _, a := range answers {
		if c.Has(a.Pair) {
			continue // already judged in full; the fragment is moot
		}
		if !fresh[a.Pair] {
			fresh[a.Pair] = true
			c.partial[a.Pair] = nil // this fragment replaces any earlier one
		}
		c.partial[a.Pair] = append(c.partial[a.Pair], a)
	}
}

// PartialLen returns the number of pairs holding partial answer sets.
func (c *Cache) PartialLen() int { return len(c.partial) }

// AllAnswers returns every cached answer in canonical order
// (aggregate.SortCanonical): a pure function of the answer *set*,
// independent of the batch sequence that produced it, which is what
// makes re-aggregation after k deltas bit-identical to aggregating a
// single from-scratch run. The canonical order is pair-major, so walking
// the maintained pair order and sorting each pair's few answers yields
// it without a global sort.
func (c *Cache) AllAnswers() []aggregate.Answer {
	_, answers := c.Answered()
	return answers
}

// Answered returns the entries holding answers, in canonical pair order,
// and AllAnswers: their answers in the same order, so the i-th distinct
// pair of the answers is the i-th entry.
func (c *Cache) Answered() ([]*Entry, []aggregate.Answer) {
	var es []*Entry
	n := 0
	for e := range c.Entries() {
		if len(e.Answers) > 0 {
			es = append(es, e)
			n += len(e.Answers)
		}
	}
	out := make([]aggregate.Answer, 0, n)
	for _, e := range es {
		lo := len(out)
		out = append(out, e.Answers...)
		aggregate.SortCanonical(out[lo:])
	}
	return es, out
}

// Pairs returns every judged pair in canonical order, as a fresh slice.
// It only reads the cache.
func (c *Cache) Pairs() []record.Pair {
	out := make([]record.Pair, 0, len(c.entries))
	for e := range c.Entries() {
		out = append(out, e.Pair)
	}
	return out
}

// SetPosteriors records the latest aggregation result on the entries.
func (c *Cache) SetPosteriors(post aggregate.Posterior) {
	for p, prob := range post {
		if e, ok := c.entries[p]; ok {
			e.Posterior = prob
		}
	}
}

// Split partitions candidate pairs into those already judged (cached) and
// those genuinely new, preserving input order. Only the fresh pairs need
// HIT generation and crowd execution.
func (c *Cache) Split(pairs []record.Pair) (cached, fresh []record.Pair) {
	for _, p := range pairs {
		if c.Has(p) {
			cached = append(cached, p)
		} else {
			fresh = append(fresh, p)
		}
	}
	return cached, fresh
}
