package crowder

import (
	"cmp"
	"context"
	"errors"
	"slices"
	"sync"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/learn"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/simjoin"
	"github.com/crowder/crowder/internal/store"
	"github.com/crowder/crowder/internal/transitivity"
	"github.com/crowder/crowder/internal/verdicts"
)

// Resolver is a long-lived entity-resolution session: it owns a table
// plus the derived state the workflow builds over it — the interned token
// cache, the similarity-join inverted index, and a cache of crowd
// verdicts keyed by pair — and keeps all of it incrementally maintained
// as records arrive. Where Resolve is a one-shot batch, a Resolver
// absorbs appends over time: ResolveDelta probes only the newly appended
// records against the existing index (new×all candidate generation
// instead of an all×all re-join) and sends only genuinely new candidate
// pairs to the crowd, reusing the cached verdicts of everything judged in
// earlier batches. Previously paid-for HITs are never re-issued.
//
// With pair-based HITs, resolving k batches incrementally produces
// bit-identical Matches to a from-scratch Resolve of the union table with
// the same Options: candidate generation is exact (the delta join finds
// the same qualifying pairs), every pair's crowd answers are a pure
// function of (Seed, pair) regardless of batching, and aggregation runs
// over the canonically ordered union of all answers. Cluster-based HITs
// remain fully deterministic in the batch sequence, but their answers
// couple pairs within a HIT (the worker's transitive closure), so a
// different batching can legitimately reach different judgments on
// borderline pairs.
//
// If a delta fails mid-flight (e.g. HIT generation rejects an option),
// the candidate pairs already discovered stay pending and are retried by
// the next ResolveDelta; the join index never re-scans them.
//
// A Resolver is safe for concurrent use. Resolutions serialize on their
// own lock (one resolve at a time), while session state is guarded by a
// read-write lock the resolve stages hold only across their mutation
// windows — so reads (Verdict, JudgedPairs, WorkerStats, Record) and
// appends proceed while a resolve is waiting on the crowd, instead of
// blocking for the delta's full wall-clock. Mutating the table other
// than through the Resolver is not supported.
type Resolver struct {
	// resolveMu serializes resolutions (ResolveDelta, EstimateCost): the
	// staged workflow assumes one delta in flight per session.
	resolveMu sync.Mutex
	// mu guards the session state (table, join index, verdict cache,
	// pending set). Resolve stages write-lock it only while actually
	// mutating — the machine pass, the post-crowd commit, aggregation —
	// and the read accessors take it shared, so they interleave with a
	// resolve whenever the crowd, not the session, is the bottleneck.
	mu    sync.RWMutex
	table *Table
	opts  Options

	// idx is the persistent similarity-join index: the session's one
	// machine pass.
	idx *simjoin.Index
	// agg is the session's answer aggregator, fixed by
	// Options.Aggregation: every delta re-aggregates the cached∪fresh
	// answer union with it, and its identity is bound to the verdict
	// cache so one session can never mix aggregation modes.
	agg aggregate.Aggregator
	// cache holds the verdicts of every judged pair.
	cache *verdicts.Cache
	// pending lists candidate pairs discovered but not yet judged —
	// normally emptied by the same ResolveDelta that discovers them, it
	// preserves work across a failed delta.
	pending []simjoin.ScoredPair
	// log is the session's durable store (Options.Store, or the no-op
	// store). Appends and queue events log as they happen; verdicts log
	// as atomic commits at the stages' existing commit points, fsynced
	// before the commit returns.
	log store.Store
	// resume carries a recovered session's in-flight HITs (set by
	// RestoreResolver, consumed by the next delta's execute stage).
	resume *crowd.ResumeState

	// learner is the hybrid router's classifier, retrained from the
	// verdict cache and the previous learner after every aggregation
	// commit (nil until the first route of a fresh hybrid session). A
	// warm-started model is a fact of the session's history, not a
	// function of the cache, so each commit journals it in its Meta
	// frame and RestoreResolver restores it. Guarded by mu.
	learner *learn.Learner
	// feats memoises the router's feature vector of every pair the
	// session trained on or routed, so each retrain and route computes
	// vectors only for pairs it has never seen. It holds at most the
	// cache's pairs plus the pending ones (synthetic negatives are never
	// memoised), is written only under mu held for writing, and is
	// derived state: never persisted, refilled lazily after recovery.
	feats *learn.Features
	// truth is the simulated crowd's reference pair set, built from
	// Options.Oracle by the first resolve that needs it. Guarded by
	// resolveMu.
	truth record.PairSet
	// graph is the session's deduction graph, rebuilt in place by each
	// delta's execute stage (rebuildGraph). Guarded by resolveMu.
	graph *transitivity.Graph
	// lastBand and lastRisk record the uncertainty band the most recent
	// route stage actually used, for observability (HybridStats).
	lastBand learn.Band
	lastRisk float64
	// spent is the session's cumulative crowd spend in dollars — the
	// router's budget accounting, persisted as a running total in Meta.
	spent float64
}

// NewResolver creates a resolution session owning the given table. The
// table may be empty (records appended later) or pre-loaded (the first
// ResolveDelta then resolves it wholesale); either way the Resolver takes
// ownership — append through the Resolver from here on. Options are fixed
// for the session so that every batch draws from the same simulated crowd.
func NewResolver(t *Table, opts Options) (*Resolver, error) {
	r, err := newResolverWith(t, opts, nil)
	if err != nil {
		return nil, err
	}
	// Log the session identity first: recovery needs the schema to
	// rebuild the table and the aggregator identity to cross-check the
	// supplied options. Then log a pre-loaded table's rows, which
	// recovery re-appends like any other.
	if err := r.log.Log(&store.Meta{Schema: t.inner.Schema, Aggregator: r.agg.Name()}); err != nil {
		return nil, err
	}
	if t.Len() > 0 {
		ev := &store.Append{Rows: make([]store.Row, t.Len())}
		for i, rec := range t.inner.Records {
			src := -1
			if i < len(t.inner.Source) {
				src = t.inner.Source[i]
			}
			ev.Rows[i] = store.Row{Src: src, Values: rec.Values}
		}
		if err := r.log.Log(ev); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// newResolverWith is the shared constructor: a fresh session (nil cache)
// or a recovered one (RestoreResolver supplies the replayed cache). It
// does not log — NewResolver logs the session identity, RestoreResolver
// restores from a log that already has it.
func newResolverWith(t *Table, opts Options, cache *verdicts.Cache) (*Resolver, error) {
	if t == nil {
		return nil, errors.New("crowder: nil table")
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts.defaults()
	agg, err := aggregate.New(opts.Aggregation)
	if err != nil {
		return nil, err
	}
	if cache == nil {
		cache = verdicts.NewCache()
	}
	if err := cache.BindAggregator(agg.Name()); err != nil {
		return nil, err
	}
	var log store.Store = store.Noop{}
	if opts.Store != nil {
		log = opts.Store
	}
	return &Resolver{
		table: t,
		opts:  opts,
		agg:   agg,
		cache: cache,
		log:   log,
		feats: learn.NewFeatures(t.inner),
		graph: transitivity.New(),
		idx: simjoin.NewIndex(t.inner, simjoin.Options{
			Threshold:       opts.Threshold,
			CrossSourceOnly: opts.CrossSourceOnly,
			Parallelism:     opts.Parallelism,
		}),
	}, nil
}

// Append adds a record and returns its ID. The record is resolved by the
// next ResolveDelta call.
func (r *Resolver) Append(values ...string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.table.Append(values...)
	// A log failure poisons the store (sticky); the next resolve's commit
	// surfaces it, since Append's signature has no error path.
	r.log.Log(&store.Append{Rows: []store.Row{{Src: -1, Values: values}}})
	return id
}

// AppendFrom adds a record tagged with a source index (see
// Table.AppendFrom).
func (r *Resolver) AppendFrom(source int, values ...string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := r.table.AppendFrom(source, values...)
	r.log.Log(&store.Append{Rows: []store.Row{{Src: source, Values: values}}})
	return id
}

// AppendBatch adds the rows in order and returns the ID of the first one
// (rows occupy IDs first..first+len(rows)-1). An empty batch returns the
// would-be next ID.
func (r *Resolver) AppendBatch(rows ...[]string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	first := r.table.Len()
	for _, row := range rows {
		r.table.Append(row...)
	}
	if len(rows) > 0 {
		ev := &store.Append{Rows: make([]store.Row, len(rows))}
		for i, row := range rows {
			ev.Rows[i] = store.Row{Src: -1, Values: row}
		}
		r.log.Log(ev)
	}
	return first
}

// takeResume consumes the recovered in-flight HIT state, if any.
func (r *Resolver) takeResume() *crowd.ResumeState {
	r.mu.Lock()
	defer r.mu.Unlock()
	rs := r.resume
	r.resume = nil
	return rs
}

// returnResume puts unconsumed resume state back after a failed delta,
// so the retry can still adopt the recovered HITs it regenerates.
func (r *Resolver) returnResume(rs *crowd.ResumeState) {
	if rs == nil || rs.Empty() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.resume = rs
}

// logPrune records a machine pass: the join index's absorb boundary
// (replayed by RestoreResolver via Absorb) and the candidates this delta
// discovered (the pending set's new tail). The parallel join discovers
// in no fixed order, so a durable session sorts them by pair first and
// its log is byte-reproducible; their order matters nowhere else, as
// every prune re-ranks the pending set. The caller holds r.mu for
// writing.
func (r *Resolver) logPrune(discovered []simjoin.ScoredPair) error {
	if _, noop := r.log.(store.Noop); noop {
		return nil
	}
	slices.SortFunc(discovered, func(a, b simjoin.ScoredPair) int { return record.ComparePairs(a.Pair, b.Pair) })
	return r.log.Log(&store.Prune{
		Absorbed:   r.idx.Indexed(),
		Discovered: discovered,
	})
}

// Len returns the number of records in the owned table.
func (r *Resolver) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.table.Len()
}

// Record returns the attribute values of the record with the given ID.
// It takes the session lock shared, so HIT rendering and match serving
// read records while a resolve is in flight.
func (r *Resolver) Record(id int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.table.Record(id)
}

// JudgedPairs returns the number of pairs with cached verdicts.
func (r *Resolver) JudgedPairs() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cache.Len()
}

// PendingPairs returns the number of candidate pairs discovered but not
// yet judged — non-zero only after a failed delta.
func (r *Resolver) PendingPairs() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, sp := range r.pending {
		if !r.cache.Has(sp.Pair) {
			n++
		}
	}
	return n
}

// PartialPairs returns the number of pairs holding partial assignment
// sets: answers collected by a cancelled or failed delta for pairs not
// yet judged in full. The next successful delta re-issues those pairs'
// HITs and supersedes the fragments.
func (r *Resolver) PartialPairs() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cache.PartialLen()
}

// WorkerStat is one worker's session-level diagnostic: agreement with
// the aggregated decisions plus the coverage needed to read it. A
// worker with ClassesSeen < 2 has answered pairs of only one decided
// class; their accuracy on the unseen class is unmeasured, and the MAP
// aggregator anchors them toward the pool mean until coverage arrives.
type WorkerStat struct {
	// Worker is the worker's ID (simulated pool index, or the queue
	// backend's worker ordinal).
	Worker int
	// Accuracy is the fraction of the worker's answers agreeing with the
	// aggregated decision of the pair they judged.
	Accuracy float64
	// Answers counts the worker's judgments over aggregated pairs.
	Answers int
	// MatchesSeen and NonMatchesSeen split Answers by the decided class
	// of the judged pair.
	MatchesSeen, NonMatchesSeen int
	// ClassesSeen is the number of distinct decided classes (0–2) in the
	// worker's history.
	ClassesSeen int
}

// WorkerStats reports every worker's accuracy and coverage against the
// session's current posteriors, sorted by worker ID — the
// spammer-detection diagnostic, with the coverage that tells a spammer
// (low accuracy, both classes seen) from a statistically unanchored
// worker (any accuracy, one class seen). It is empty until a crowd
// round commits answers. Partial answers of a cancelled delta never
// count; but if the cancelled delta's earlier rounds committed answers
// in full, those count against posteriors not yet aggregated (0, a
// decided non-match, for a pair new to the session) until the next
// delta aggregates — or a restore, which aggregates once.
func (r *Resolver) WorkerStats() []WorkerStat {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.workerStatsLocked()
}

// workerStatsLocked is WorkerStats for a caller holding r.mu in either
// mode: one pass over the cached answers, each judged against its
// pair's current posterior and tallied in a table indexed by worker ID
// (a map for IDs outside [0, 4096)).
func (r *Resolver) workerStatsLocked() []WorkerStat {
	var dense []WorkerStat
	far := map[int]*WorkerStat{}
	for e := range r.cache.Entries() {
		decided := e.Posterior >= 0.5
		for _, a := range e.Answers {
			var s *WorkerStat
			if 0 <= a.Worker && a.Worker < 1<<12 {
				if a.Worker >= len(dense) {
					dense = append(dense, make([]WorkerStat, a.Worker+1-len(dense))...)
				}
				s = &dense[a.Worker]
			} else if s = far[a.Worker]; s == nil {
				s = new(WorkerStat)
				far[a.Worker] = s
			}
			s.Worker = a.Worker
			s.Answers++
			if decided {
				s.MatchesSeen++
			} else {
				s.NonMatchesSeen++
			}
			if a.Match == decided {
				s.Accuracy++ // agreements, normalised below
			}
		}
	}
	var out []WorkerStat
	for _, s := range dense {
		if s.Answers > 0 {
			out = append(out, s)
		}
	}
	for _, s := range far {
		out = append(out, *s)
	}
	for i := range out {
		s := &out[i]
		s.Accuracy /= float64(s.Answers)
		s.ClassesSeen = min(s.MatchesSeen, 1) + min(s.NonMatchesSeen, 1)
	}
	slices.SortFunc(out, func(a, b WorkerStat) int { return cmp.Compare(a.Worker, b.Worker) })
	return out
}

// aggregateLocked is the session's aggregation commit: it re-aggregates
// every cached answer with the session's aggregator, records the
// posteriors on the cache and re-derives the deduced verdicts'
// confidences from them. All of it is a pure function of facts the log
// already holds — answers, proofs — so none of it is logged:
// stageAggregate runs it every delta and RestoreResolver once. The
// caller holds r.mu for writing (or owns r exclusively).
func (r *Resolver) aggregateLocked() {
	answered, answers := r.cache.Answered()
	if len(answers) > 0 {
		// The cache was bound to this aggregator's identity when the
		// session was created, so one session never mixes modes. The
		// answers are canonical, so the posteriors follow the entries.
		for i, p := range r.agg.Dense(answers) {
			answered[i].Posterior = p
		}
	}
	deriveDeduced(r.cache)
}

// Verdict returns the cached confidence for a pair (crowd posterior, or
// machine likelihood under MachineOnly) and whether the pair has been
// judged.
func (r *Resolver) Verdict(p Pair) (float64, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e := r.cache.Get(record.MakePair(record.ID(p.A), record.ID(p.B)))
	if e == nil {
		return 0, false
	}
	return e.Posterior, true
}

// ResolveDelta resolves the records appended since the previous call
// against the whole table: the delta probes the live join index, pairs
// already judged reuse their cached verdicts, and only
// genuinely new candidate pairs are batched into HITs and crowdsourced.
// The returned Result covers the full session — Matches ranks every
// judged pair, while HITs, CostDollars and ElapsedSeconds account only
// for the work this delta actually performed (all zero when the delta
// introduced no new candidate pairs). Calling it with no new records
// re-aggregates and returns the current state at no crowd cost — except
// in a hybrid session, where an empty delta still runs the router's
// review and re-asks any machine verdicts the retrained model disputes:
// a trailing ResolveDelta is the session's self-audit pass.
func (r *Resolver) ResolveDelta() (*Result, error) {
	return r.ResolveDeltaContext(context.Background())
}

// ResolveDeltaContext is ResolveDelta bound to a context: cancelling ctx
// aborts the delta mid-stage — most usefully while the crowd is still
// answering HITs, which may take minutes to hours against a live
// backend. A cancelled delta keeps its contract with failed deltas: the
// candidate pairs already discovered stay pending and are retried by the
// next ResolveDelta, and any answers the crowd already delivered are
// persisted as partial assignment sets (see PartialPairs).
//
// Resolutions serialize — a second ResolveDelta blocks until the first
// finishes — but the session state lock is held only across the stages'
// mutation windows, so reads (Verdict, JudgedPairs, WorkerStats,
// Record) and appends proceed while the crowd is still answering.
// Records appended mid-resolve are picked up by the next delta.
func (r *Resolver) ResolveDeltaContext(ctx context.Context) (*Result, error) {
	r.resolveMu.Lock()
	defer r.resolveMu.Unlock()
	return r.resolve(ctx, resolvePipeline())
}

// resolve runs the staged workflow; the caller holds r.resolveMu. The
// stages take r.mu themselves around their mutation windows.
func (r *Resolver) resolve(ctx context.Context, p *resolverPipeline) (*Result, error) {
	r.mu.RLock()
	empty := r.table.Len() == 0
	r.mu.RUnlock()
	if empty {
		return nil, errors.New("crowder: empty table")
	}
	if !r.opts.MachineOnly && r.opts.Oracle == nil && r.opts.Backend == nil {
		return nil, errors.New("crowder: Options.Oracle is required (the simulated crowd needs reference labels); set MachineOnly for the pure machine baseline, or supply Options.Backend for real crowd answers")
	}
	st := &resolveState{rv: r, res: &Result{}}
	final, stats, err := p.Run(ctx, st)
	if err != nil {
		return nil, err
	}
	for _, s := range stats {
		final.res.Stages = append(final.res.Stages, StageStat{Name: s.Name, Seconds: s.Duration.Seconds()})
	}
	return final.res, nil
}
