// Package crowder implements the hybrid human–machine entity-resolution
// workflow of "CrowdER: Crowdsourcing Entity Resolution" (Wang, Kraska,
// Franklin, Feng — PVLDB 5(11), 2012).
//
// The workflow (Figure 1 of the paper) runs in three stages:
//
//  1. A machine pass computes a likelihood for every candidate record pair
//     (Jaccard similarity over the records' token sets) and discards pairs
//     below a threshold.
//  2. The surviving pairs are batched into HITs — pair-based (independent
//     pairs per task) or cluster-based (groups of records in which the
//     crowd finds all matches). Cluster-based HIT generation minimizes the
//     number of tasks with the paper's two-tiered algorithm: greedy
//     partitioning of large connected components plus cutting-stock
//     packing of the small ones.
//  3. The HITs are executed by a crowd (simulated here: this repository
//     substitutes a worker-model simulator for Amazon Mechanical Turk),
//     each HIT replicated across multiple workers, and the answers are
//     combined with the Dawid–Skene EM algorithm into ranked match
//     decisions.
//
// Internally every resolution runs as a staged engine (internal/engine):
// four named stages — prune (the machine pass), generate (HIT batching),
// execute (the crowd) and aggregate (Dawid–Skene EM) — run in order on
// the caller's goroutine, with per-stage wall-clock timings surfaced on
// Result.Stages.
// The machine pass operates on interned token IDs cached on the table and
// runs its prefix-filtered join over one live index, probing across
// Options.Parallelism goroutines.
//
// The execute stage is an asynchronous HIT lifecycle behind the Backend
// interface: HITs are posted, assignments stream back as workers finish
// them (each HIT stepping through posted → answering → complete), lapsed
// assignments are topped up, and the whole run is cancellable through
// ResolveContext / Resolver.ResolveDeltaContext. The default backend is
// the reference simulator — the paper's AMT worker model replayed on a
// virtual clock, with deterministic RNG streams per pair (pair-based
// HITs) or per HIT (cluster-based ones), so results are bit-identical at
// every parallelism level: runs are deterministic in (table, Options)
// alone. NewQueueBackend instead holds HITs open for external workers to
// claim and answer — the engine side of the crowderd HTTP service
// (internal/service, cmd/crowderd).
//
// Resolve is the one-shot form. For a long-running service absorbing
// appends, the Resolver type keeps the join index and the crowd's
// verdicts alive across batches: ResolveDelta resolves only the newly
// appended records against the existing table, reusing every verdict
// already paid for. See Resolver.
//
// The minimal entry point is Resolve:
//
//	table := crowder.NewTable("name", "price")
//	table.Append("iPad Two 16GB WiFi White", "$490")
//	table.Append("iPad 2nd generation 16GB WiFi White", "$469")
//	res, err := crowder.Resolve(table, crowder.Options{
//		Threshold: 0.3,
//		Oracle:    reference, // simulated-crowd ground truth
//	})
//
// Because the crowd is simulated, callers provide an Oracle: the reference
// labels the simulated workers perturb. In a live deployment the oracle is
// replaced by real crowd answers; everything upstream (pruning, HIT
// generation, aggregation) is unchanged.
package crowder

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/engine"
	"github.com/crowder/crowder/internal/hitgen"
	"github.com/crowder/crowder/internal/learn"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/simjoin"
	"github.com/crowder/crowder/internal/store"
	"github.com/crowder/crowder/internal/verdicts"
)

// Table is a collection of records to de-duplicate. Records are dense
// integer IDs in insertion order.
type Table struct {
	inner *record.Table
}

// NewTable creates a table with the given attribute names.
func NewTable(schema ...string) *Table {
	return &Table{inner: record.NewTable(schema...)}
}

// Append adds a record and returns its ID.
func (t *Table) Append(values ...string) int {
	return int(t.inner.Append(values...))
}

// AppendFrom adds a record tagged with a source index. When records come
// from two sources (e.g. integrating two catalogs), set CrossSourceOnly in
// Options so only cross-source pairs are considered. The source must be
// non-negative: AppendFrom panics otherwise, since the session log
// reserves negative tags for records appended without one.
func (t *Table) AppendFrom(source int, values ...string) int {
	if source < 0 {
		panic(fmt.Sprintf("crowder: AppendFrom source %d is negative", source))
	}
	return int(t.inner.AppendFrom(source, values...))
}

// Len returns the number of records.
func (t *Table) Len() int { return t.inner.Len() }

// Record returns the attribute values of the record with the given ID.
func (t *Table) Record(id int) []string {
	r := t.inner.Get(record.ID(id))
	if r == nil {
		return nil
	}
	out := make([]string, len(r.Values))
	copy(out, r.Values)
	return out
}

// Pair is an unordered pair of record IDs (A < B).
type Pair struct {
	A, B int
}

// HITType selects the task format sent to the crowd.
type HITType int

const (
	// ClusterHITs batch up to ClusterSize records per task; workers find
	// all matches within the group. This is the paper's preferred format.
	ClusterHITs HITType = iota
	// PairHITs batch ClusterSize individual pairs per task, each verified
	// independently.
	PairHITs
)

// Generator selects the cluster-based HIT generation strategy.
type Generator int

const (
	// GenTwoTiered is the paper's contribution (Section 5) and the default.
	GenTwoTiered Generator = iota
	// GenRandom fills HITs with random pairs.
	GenRandom
	// GenBFS fills HITs in breadth-first graph order.
	GenBFS
	// GenDFS fills HITs in depth-first graph order.
	GenDFS
	// GenApprox is the k-clique-cover approximation algorithm (Section 4).
	GenApprox
)

// TransitivityMode selects whether the workflow deduces verdicts from
// the pair graph instead of asking the crowd for every candidate pair.
type TransitivityMode int

const (
	// TransitivityOff (the default) crowdsources every new candidate
	// pair: the execute stage has no deduction graph, so it runs one
	// round posting the generate stage's whole batch, bit-identical to a
	// build without the transitivity feature.
	TransitivityOff TransitivityMode = iota
	// TransitivityOn gives the execute stage a deduction graph, so its
	// rounds of post → collect → deduce → retract adapt: verdicts implied
	// by earlier answers (A=B ∧ B=C ⇒ A=C; A=B ∧ B≠D ⇒ A≠D) are deduced
	// instead of asked, in-flight HITs whose pairs become deducible are
	// retracted, and the Result reports DeducedPairs and HITsSaved.
	// Fewer HITs are issued at equal-or-better quality; the price is
	// that rounds serialize, so simulated crowd latency (ElapsedSeconds)
	// grows, and — like cluster-based HITs — results depend on the batch
	// sequence, not on the final table alone.
	TransitivityOn
)

// HybridMode selects whether the session routes candidates through the
// online-learned classifier before buying crowd verdicts.
type HybridMode int

const (
	// HybridOff (the default) sends every new candidate pair to the
	// crowd, exactly as before: results are bit-identical to a build
	// without the hybrid router.
	HybridOff HybridMode = iota
	// HybridOn inserts the route stage between prune and generate: a
	// linear classifier retrained from the verdict cache after every
	// aggregation partitions scored candidates into machine-accept /
	// machine-reject / uncertain, and only the uncertain band is batched
	// into HITs. Machine-resolved pairs enter the verdict cache with
	// machine provenance — transitivity deduces over them, and deltas
	// never re-ask them. Until the session has accumulated
	// HybridMinLabels verdicts of both classes, everything still goes to
	// the crowd, so the first delta of a fresh session is unchanged.
	// Like transitivity, results are deterministic in the batch
	// sequence, not the final table alone: what the learner knows when a
	// pair is routed depends on which delta routed it.
	HybridOn
)

// AggregationMode selects how the replicated crowd answers of each pair
// are combined into a match posterior. Its String is the mode's wire
// name — the identity persisted on the verdict cache and accepted by the
// service API ("dawid-skene", "majority-vote", "dawid-skene-map").
type AggregationMode = aggregate.Method

const (
	// AggregationDawidSkene (the default) runs plain Dawid–Skene EM with
	// additive smoothing — bit-identical to every release before the
	// aggregator became pluggable.
	AggregationDawidSkene = aggregate.MethodDawidSkene
	// AggregationMajorityVote scores each pair by its raw match
	// fraction: the paper's baseline, susceptible to spammers but cheap
	// and trivially auditable.
	AggregationMajorityVote = aggregate.MethodMajorityVote
	// AggregationDawidSkeneMAP runs Dawid–Skene with
	// maximum-a-posteriori M-steps: an informative diagonal Beta prior
	// on every worker confusion row plus pool-mean anchoring of workers
	// whose history covers only one class. It fixes the sparse-coverage
	// degeneracy in which a high learned prevalence flips a unanimously
	// rejected pair to a confident match (see the ROADMAP;
	// TestDawidSkeneMAPNeverInvertsUnanimous and
	// TestAggregationMAPF1AtLeastDefault hold its gate); outputs differ
	// from the default, converging to it as worker histories grow dense.
	AggregationDawidSkeneMAP = aggregate.MethodDawidSkeneMAP
)

// ParseAggregationMode maps a wire name back to its AggregationMode;
// the empty string selects the default. It is the inverse of
// AggregationMode.String and the parser behind the service API's
// "aggregation" table option.
func ParseAggregationMode(s string) (AggregationMode, error) {
	return aggregate.ParseMethod(s)
}

// Options configures Resolve.
type Options struct {
	// Threshold is the minimum machine likelihood (Jaccard similarity) for
	// a pair to be sent to the crowd. Default 0.3.
	Threshold float64
	// ClusterSize is k: the maximum records per cluster-based HIT, or
	// pairs per pair-based HIT. Default 10.
	ClusterSize int
	// HITType selects cluster-based (default) or pair-based tasks.
	HITType HITType
	// Generator selects the cluster-based generation strategy
	// (default GenTwoTiered). Ignored for pair-based HITs.
	Generator Generator
	// Assignments is the replication factor per HIT. Default 3.
	Assignments int
	// QualificationTest screens simulated workers through a three-pair
	// test before they may work (Section 7.1).
	QualificationTest bool
	// CrossSourceOnly restricts candidates to pairs from different sources.
	CrossSourceOnly bool
	// Seed drives all simulation randomness. Runs are deterministic in
	// (table, Options).
	Seed int64
	// Workers is the simulated crowd pool size. Default 120.
	Workers int
	// SpammerRate is the fraction of spammers in the pool. The zero value
	// keeps the 0.12 default; a negative value (NoSpammers) requests an
	// explicitly clean, spammer-free pool — previously inexpressible
	// because 0 was silently overwritten by the default.
	SpammerRate float64
	// Oracle is the reference truth the simulated crowd perturbs: the set
	// of genuinely matching pairs. Required (the simulator cannot invent
	// human judgment). Pairs absent from the oracle are treated as
	// non-matches.
	Oracle []Pair
	// MachineOnly skips the crowd entirely and returns the machine
	// likelihood ranking (the "simjoin" baseline of Section 7.3): the
	// route stage judges every candidate by machine, with its likelihood
	// as the verdict's confidence, so the pairs count as machine-judged
	// (Result.MachinePairs, Estimate.MachinePairs, HybridStats).
	MachineOnly bool
	// Parallelism bounds the worker goroutines used by the machine pass
	// (tokenizing and interning the appended records, sorting their
	// prefixes, then probing the similarity-join index) and the simulated
	// crowd (concurrent HIT execution). 0 means GOMAXPROCS; 1 keeps the
	// whole machine pass on one goroutine. Results are bit-identical at
	// every parallelism level.
	Parallelism int
	// MaxCandidates, when positive, bounds the machine pass's ranked
	// candidate list: only the MaxCandidates most likely new pairs of
	// each delta are sent to the crowd. The candidate stream feeds a
	// bounded top-K heap, so memory stays O(MaxCandidates) no matter how
	// many pairs survive the threshold — the budget lever for very large
	// tables, complementing Threshold (which bounds by quality rather
	// than by count). 0 is the unbounded sentinel: every qualifying pair
	// is kept, bit-identical to the behavior before the bound existed.
	// Negative values are rejected by validation — a "negative budget"
	// has no meaning, and before the check it silently behaved as
	// unbounded. Dropped pairs are not remembered: they are re-discovered
	// only if a later delta re-emits them.
	MaxCandidates int
	// Backend selects the crowd executing the HITs. nil (the default)
	// uses the reference simulator driven by Oracle; NewQueueBackend
	// returns a backend where external workers claim and answer HITs
	// (crowderd's worker API). With a custom backend the Oracle is not
	// required — real workers supply the judgment.
	Backend Backend
	// Progress, when non-nil, receives a lifecycle event after every HIT
	// state transition during the execute stage (posted → answering →
	// complete). Called from the engine's goroutines; keep it fast.
	Progress func(Progress)
	// InterimAggregation enables incremental Dawid–Skene re-aggregation
	// as answers land: each HIT completion recomputes the posterior over
	// the answers collected so far and attaches it to the Progress event.
	// The final result always re-aggregates the full canonical answer
	// set, so this affects observability only, never the outcome.
	InterimAggregation bool
	// Transitivity enables deduction of verdicts from the pair graph
	// (TransitivityOn) instead of crowdsourcing every candidate pair.
	// The zero value (TransitivityOff) keeps results bit-identical to a
	// resolution without the feature. See TransitivityMode.
	Transitivity TransitivityMode
	// Aggregation selects the answer aggregator. The zero value
	// (AggregationDawidSkene) keeps the pinned default; the aggregator
	// is fixed for the session and recorded on the verdict cache, so an
	// incremental session re-aggregates cached and fresh answers under
	// one method and never mixes modes. See AggregationMode.
	Aggregation AggregationMode
	// Hybrid enables the learning router (HybridOn): after the machine
	// pass, a classifier trained online from the session's accumulated
	// verdicts resolves high-confidence pairs directly and sends only
	// the uncertain band to the crowd, so crowd cost falls as the
	// session ages. The zero value (HybridOff) keeps results
	// bit-identical to a build without the router. See HybridMode.
	Hybrid HybridMode
	// HybridRisk is the per-class machine-error budget the router's
	// uncertainty band is cut from: at most this fraction of either
	// training class may land on the machine's side of the band. 0
	// selects the default (0.001); values above 0.25 are rejected. The
	// effective risk is scaled up when the measured worker pool is
	// inaccurate (buying HITs from a noisy pool purchases less
	// certainty) and when the projected crowd cost of the uncertain
	// band exceeds the remaining HybridBudgetDollars.
	HybridRisk float64
	// HybridMinLabels is the verdict-count floor before the router
	// trusts its classifier; below it (or with fewer than 4 verdicts of
	// either class) every candidate still goes to the crowd. 0 selects
	// the default (24).
	HybridMinLabels int
	// HybridBudgetDollars, when positive, is the session's crowd-spend
	// target: once cumulative crowd cost approaches it, the router
	// widens its machine-error risk (doubling, capped at 0.25) until
	// the uncertain band's projected HIT cost fits what remains. 0
	// means no budget pressure — the band is governed by HybridRisk and
	// pool quality alone. ResolveWithBudget seeds this from its
	// BudgetDollars when unset.
	HybridBudgetDollars float64
	// Store, when non-nil, durably logs every state mutation of the
	// session — appended records, discovered candidates, paid-for crowd
	// verdicts with provenance — so a crashed process recovers the
	// session bit-identically (OpenStore + RestoreResolver). nil (the
	// default) keeps the session purely in-memory, identical to a build
	// without persistence. See Store and OpenStore.
	Store Store
}

// validate rejects option values that previously fell through to
// defaults or misbehaved silently. It is the single validation path
// shared by Resolve, NewResolver and EstimateCost.
func (o *Options) validate() error {
	if o.Workers < 0 {
		return fmt.Errorf("crowder: Options.Workers = %d; must not be negative (0 selects the default pool of 120)", o.Workers)
	}
	if o.Assignments < 0 {
		return fmt.Errorf("crowder: Options.Assignments = %d; must not be negative (0 selects the default replication of 3)", o.Assignments)
	}
	if o.MaxCandidates < 0 {
		return fmt.Errorf("crowder: Options.MaxCandidates = %d; must not be negative (0 keeps every qualifying candidate)", o.MaxCandidates)
	}
	if o.ClusterSize < 0 {
		return fmt.Errorf("crowder: Options.ClusterSize = %d; must not be negative (0 selects the default of 10)", o.ClusterSize)
	}
	if o.Threshold < 0 || o.Threshold > 1 {
		return fmt.Errorf("crowder: Options.Threshold = %v; must be in [0, 1] (0 selects the default 0.3)", o.Threshold)
	}
	if o.Parallelism < 0 {
		return fmt.Errorf("crowder: Options.Parallelism = %d; must not be negative (0 means GOMAXPROCS)", o.Parallelism)
	}
	if o.HITType < ClusterHITs || o.HITType > PairHITs {
		return fmt.Errorf("crowder: Options.HITType = %d; must be ClusterHITs (0) or PairHITs (1)", o.HITType)
	}
	if o.SpammerRate > 1 {
		return fmt.Errorf("crowder: Options.SpammerRate = %v; must be at most 1 (0 selects the default 0.12, NoSpammers a clean pool)", o.SpammerRate)
	}
	if o.Backend == nil && !o.MachineOnly {
		// The simulator draws each HIT's replicas from distinct workers, so
		// a pool smaller than the replication factor fails every delta.
		d := *o
		d.defaults()
		if d.Workers < d.Assignments {
			return fmt.Errorf("crowder: Options.Workers = %d (defaulted) is below Options.Assignments = %d; the simulated pool needs a worker per replica", d.Workers, d.Assignments)
		}
	}
	if o.Generator < GenTwoTiered || o.Generator > GenApprox {
		return fmt.Errorf("crowder: Options.Generator = %d; must be GenTwoTiered (0), GenRandom (1), GenBFS (2), GenDFS (3) or GenApprox (4)", o.Generator)
	}
	if o.Transitivity < TransitivityOff || o.Transitivity > TransitivityOn {
		return fmt.Errorf("crowder: Options.Transitivity = %d; must be TransitivityOff (0) or TransitivityOn (1)", o.Transitivity)
	}
	if o.Aggregation < AggregationDawidSkene || o.Aggregation > AggregationDawidSkeneMAP {
		return fmt.Errorf("crowder: Options.Aggregation = %d; must be AggregationDawidSkene (0), AggregationMajorityVote (1) or AggregationDawidSkeneMAP (2)", o.Aggregation)
	}
	if o.Hybrid < HybridOff || o.Hybrid > HybridOn {
		return fmt.Errorf("crowder: Options.Hybrid = %d; must be HybridOff (0) or HybridOn (1)", o.Hybrid)
	}
	if o.HybridRisk < 0 || o.HybridRisk > learn.MaxRisk {
		return fmt.Errorf("crowder: Options.HybridRisk = %v; must be in [0, %v] (0 selects the default %v)", o.HybridRisk, learn.MaxRisk, learn.DefaultRisk)
	}
	if o.HybridMinLabels < 0 {
		return fmt.Errorf("crowder: Options.HybridMinLabels = %d; must not be negative (0 selects the default %d)", o.HybridMinLabels, learn.DefaultMinLabels)
	}
	if o.HybridBudgetDollars < 0 {
		return fmt.Errorf("crowder: Options.HybridBudgetDollars = %v; must not be negative (0 means no budget pressure)", o.HybridBudgetDollars)
	}
	return nil
}

// hybrid reports whether this session routes candidates through the
// learning router. MachineOnly is the all-machine baseline: its route
// stage judges every candidate by machine, with no classifier.
func (o *Options) hybrid() bool {
	return o.Hybrid == HybridOn && !o.MachineOnly
}

func (o *Options) defaults() {
	if o.Threshold <= 0 {
		o.Threshold = 0.3
	}
	if o.ClusterSize <= 0 {
		o.ClusterSize = 10
	}
	if o.Assignments <= 0 {
		o.Assignments = 3
	}
	if o.Workers <= 0 {
		o.Workers = 120
	}
	if o.SpammerRate == 0 {
		o.SpammerRate = 0.12
	}
	if o.HybridRisk == 0 {
		o.HybridRisk = learn.DefaultRisk
	}
	if o.HybridMinLabels == 0 {
		o.HybridMinLabels = learn.DefaultMinLabels
	}
	// Negative SpammerRate (NoSpammers) passes through unchanged; the
	// population layer normalizes it to an actually clean pool, so the
	// sentinel keeps one meaning everywhere.
}

// NoSpammers is the Options.SpammerRate sentinel for a clean pool: no
// simulated spammers at all. (Options.SpammerRate = 0 keeps the default.)
const NoSpammers = crowd.NoSpammers

// Match is one output pair with the workflow's confidence that it is a
// true match (crowd posterior, deduced or router confidence, or machine
// likelihood under MachineOnly).
type Match struct {
	Pair       Pair
	Confidence float64
}

// StageStat is the measured wall-clock time of one engine stage.
type StageStat struct {
	// Name is the stage: "prune", "route", "generate", "execute" or
	// "aggregate".
	Name string
	// Seconds is the stage's wall-clock processing time.
	Seconds float64
}

// Result is the outcome of the hybrid workflow. For an incremental
// session (Resolver.ResolveDelta) the match fields cover the whole
// session while the work fields (HITs, CostDollars, ElapsedSeconds,
// NewCandidates) account only for the delta just resolved.
type Result struct {
	// TotalPairs is the number of candidate pairs before pruning, over
	// the whole table.
	TotalPairs int
	// Candidates is the number of pairs whose likelihood passed the
	// threshold — every judged pair of the session, cached and new.
	Candidates int
	// NewCandidates is the number of candidate pairs first discovered by
	// this resolve; only these were batched into HITs. For a one-shot
	// Resolve it equals Candidates.
	NewCandidates int
	// CachedCandidates is the number of pairs whose verdicts were reused
	// from earlier deltas (Candidates − NewCandidates); their HITs were
	// paid for once and never re-issued.
	CachedCandidates int
	// HITs is the number of tasks generated for this resolve's new
	// candidate pairs. With Transitivity on it counts the tasks actually
	// posted to the crowd (including ones later retracted mid-flight) —
	// typically fewer than the one-shot batching when pairs were deduced
	// instead of asked.
	HITs int
	// DeducedPairs is the number of this resolve's new candidate pairs
	// whose verdicts were deduced from the pair graph instead of asked
	// (Transitivity on; always 0 otherwise).
	DeducedPairs int
	// MachinePairs is the number of this resolve's new candidate pairs
	// judged by machine, with no HIT issued: those the hybrid router's
	// classifier resolved outside its uncertainty band (Hybrid on), or
	// every new candidate under MachineOnly. Always 0 otherwise.
	MachinePairs int
	// HITsSaved is the number of tasks the one-shot batching would have
	// generated for this resolve's new candidate pairs minus the tasks
	// actually posted. It is negative when adaptive rounds fragmented
	// the batching without deducing enough to pay for it — possible on
	// workloads with little transitive structure when deferred pairs'
	// chains fail to confirm (TestTransitiveFewerHITsEqualOrBetterF1
	// pins the reference workload where savings must be strictly
	// positive).
	HITsSaved int
	// RetractedHITs counts posted tasks withdrawn mid-flight because
	// their verdicts became deducible while they were answering. Their
	// collected assignments are still paid for (CostDollars), but their
	// remaining replication was cancelled.
	RetractedHITs int
	// CostDollars is the simulated crowd cost of this resolve (HITs ×
	// assignments × $0.025, Section 7.1's AMT pricing).
	CostDollars float64
	// ElapsedSeconds is the simulated crowd completion time (makespan)
	// of this resolve's HITs.
	ElapsedSeconds float64
	// Matches lists all judged pairs ranked by confidence descending,
	// ties in pair order (SortMatches' order), each pair once: asked
	// pairs with their aggregated posterior, deduced and machine pairs
	// with theirs. Callers typically keep those with Confidence ≥ 0.5.
	Matches []Match
	// Stages reports the engine's per-stage wall-clock timings, in
	// execution order (prune, route, generate, execute, aggregate).
	Stages []StageStat
}

// Accepted returns the matches with confidence at least 0.5.
func (r *Result) Accepted() []Match {
	var out []Match
	for _, m := range r.Matches {
		if m.Confidence >= 0.5 {
			out = append(out, m)
		}
	}
	return out
}

// resolverPipeline is the concrete engine pipeline type threading
// resolveState through the stages.
type resolverPipeline = engine.Pipeline[*resolveState]

// resolveState is the value threaded through the engine stages of one
// delta. Each stage reads what its predecessors produced and fills in its
// own slice of the state; the embedded Resolver carries the persistent
// session state (live join index, verdict cache, pending pairs) across
// deltas.
type resolveState struct {
	rv *Resolver
	// planOnly marks an EstimateDelta run: prune, route and generate
	// execute normally but nothing is judged, so the verdict cache stays
	// untouched. The machine pass still absorbs the delta into the join
	// index, so its candidates are recorded as pending, as for any delta.
	planOnly bool

	// prune → the delta's genuinely new candidate pairs (not in the
	// verdict cache), ranked by likelihood.
	scored []simjoin.ScoredPair
	// route → the machine verdicts under review this delta: pairs the
	// retrained router demoted back into scored for crowd arbitration.
	// While under review a verdict is not ground truth, so transitive
	// execution must not use its edge to deduce it right back.
	demoted record.PairSet
	// generate → the one-shot batching of scored.
	batch hitBatch

	res *Result
}

// stagePrune is the machine pass: generate the delta's candidate pairs,
// score them, drop everything below the likelihood threshold, and split
// off the pairs whose verdicts are already cached. Candidates discovered
// by a previously failed delta (still pending) are folded in for retry.
// The whole stage runs under the session's write lock — it mutates the
// join index and the pending set — which is the only long write-held
// window of a resolve; reads resume as soon as the machine pass ends.
//
// The candidates stream out of the join index one at a time
// (simjoin.Index.UpdateSeq, which absorbs the delta as it goes) and feed
// a ranking collector (a bounded top-K heap when Options.MaxCandidates
// is set), so this stage holds O(MaxCandidates) scored pairs rather than
// the delta's full candidate set. The collector's total order makes the
// ranking deterministic even though the parallel join emits in
// nondeterministic order; unbounded, it is bit-identical to sorting a
// materialized slice.
func stagePrune(_ context.Context, st *resolveState) (*resolveState, error) {
	rv := st.rv
	rv.mu.Lock()
	defer rv.mu.Unlock()
	// Tokenizing the delta is part of the machine pass and runs on its
	// workers; every later TokenIDs call finds the cache warm.
	rv.table.inner.WarmTokens(engine.WorkerCount(rv.opts.Parallelism, rv.table.inner.Len()))
	pendBefore := len(rv.pending)
	rank := engine.NewTopK(rv.opts.MaxCandidates, simjoin.CompareScored)
	// Fold in candidates left pending by a failed delta or an estimate.
	// They cannot recur in this delta's stream: both endpoints are
	// already indexed.
	for _, sp := range rv.pending {
		if !rv.cache.Has(sp.Pair) {
			rank.Push(sp)
		}
	}
	// Draining the stream absorbs the delta into the index: it must run
	// exactly once per prune, and its candidates land in the pending set
	// or they would be lost to every later delta.
	for sp := range rv.idx.UpdateSeq() {
		rv.pending = append(rv.pending, sp)
		if !rv.cache.Has(sp.Pair) {
			rank.Push(sp)
		}
	}
	st.scored = rank.Ranked()
	st.res.TotalPairs = rv.table.inner.PairUniverse(rv.opts.CrossSourceOnly)
	st.res.NewCandidates = len(st.scored)
	st.res.CachedCandidates = rv.cache.Len()
	st.res.Candidates = st.res.NewCandidates + st.res.CachedCandidates
	if err := rv.logPrune(rv.pending[pendBefore:]); err != nil {
		return nil, err
	}
	return st, nil
}

// stageGenerate batches the new candidate pairs into HITs: the one-shot
// batching every mode starts from. Cached pairs never reach this stage:
// their HITs were issued (and paid for) by the delta that first
// discovered them. A plan-only run (EstimateDelta) reports this batch; the
// execute stage posts it as its first round unless deduction resolved
// some of the pairs first, and Result.HITsSaved is measured against it.
func stageGenerate(_ context.Context, st *resolveState) (*resolveState, error) {
	if len(st.scored) == 0 {
		return st, nil
	}
	b, err := batchHITs(simjoin.Pairs(st.scored), st.rv.opts)
	if err != nil {
		return nil, err
	}
	st.batch = b
	st.res.HITs = len(b.pairs)
	return st, nil
}

// hitBatch is a set of pairs batched into HITs but not yet posted: per
// HIT, the pairs it asks about, their slots (indices) in the batched
// pair list and, for cluster-based HITs, the record group shown to the
// worker (records is nil for pair-based batches).
type hitBatch struct {
	pairs   [][]record.Pair
	slots   [][]int32
	records [][]record.ID
}

// batchHITs batches pairs in the configured HIT format — the one place
// that decision is made. Cluster-based HITs come from the configured
// generator, checked against Definition 1, with each HIT's covered pairs
// in input order (the simulator draws its RNG values pair by pair in that
// order); pair-based HITs take ClusterSize pairs each.
func batchHITs(pairs []record.Pair, opts Options) (hitBatch, error) {
	if opts.HITType == PairHITs {
		gen, err := hitgen.GeneratePairHITs(pairs, opts.ClusterSize)
		if err != nil {
			return hitBatch{}, err
		}
		b := hitBatch{pairs: make([][]record.Pair, len(gen)), slots: make([][]int32, len(gen))}
		slots := make([]int32, len(pairs))
		for i := range slots {
			slots[i] = int32(i)
		}
		for i, h := range gen {
			// Pair HITs take the pairs in order, ClusterSize at a time.
			b.pairs[i], b.slots[i], slots = h.Pairs, slots[:len(h.Pairs)], slots[len(h.Pairs):]
		}
		return b, nil
	}
	gen, err := generatorFor(opts.Generator, opts.Seed).Generate(pairs, opts.ClusterSize)
	if err != nil {
		return hitBatch{}, err
	}
	covers, slots, err := hitgen.Covers(pairs, gen, opts.ClusterSize)
	if err != nil {
		return hitBatch{}, fmt.Errorf("crowder: generated HITs violate the covering invariant: %w", err)
	}
	b := hitBatch{pairs: covers, slots: slots, records: make([][]record.ID, len(gen))}
	for i, h := range gen {
		b.records[i] = h.Records
	}
	return b, nil
}

// tasks converts the batch into backend tasks with ordinals starting at
// ord, so every round of a delta draws fresh RNG streams, each HIT
// carrying its pairs' likelihoods from scored — the pair list the batch
// was built from — by slot. It allocates the tasks' HIT IDs: call it
// only to post them.
func (b hitBatch) tasks(assignments, ord int, scored []simjoin.ScoredPair) []crowd.HIT {
	var hits []crowd.HIT
	if b.records != nil {
		hits = crowd.ClusterHITsFromGen(b.records, b.pairs, assignments)
	} else {
		hits = crowd.PairHITsFromGen(b.pairs, assignments)
	}
	crowd.OffsetOrds(hits, ord)
	for i, slots := range b.slots {
		hits[i].Likelihoods = make([]float64, len(slots))
		for j, s := range slots {
			hits[i].Likelihoods[j] = scored[s].Likelihood
		}
	}
	return hits
}

// retractLeftovers withdraws recovered in-flight HITs the restarted
// delta did not adopt: their pairs were judged (or deduced) before the
// crash, so the tasks are unreachable and must not sit open for workers.
func retractLeftovers(b crowd.Backend, rs *crowd.ResumeState) {
	if rs == nil {
		return
	}
	ids := rs.Leftovers()
	if len(ids) == 0 {
		return
	}
	if rt, ok := b.(crowd.Retractor); ok {
		rt.Retract(ids)
	}
}

// newBackend returns the crowd executing this resolution's HITs: the
// caller-supplied Options.Backend, or the reference simulator fed by the
// Oracle, whose pair set the session builds once. Simulated workers err
// most on genuinely ambiguous pairs; the machine likelihoods from the
// prune stage, which the posted HITs carry, calibrate that per-pair
// difficulty (a pair without one is of middling difficulty). The
// caller holds the session's resolveMu.
func (st *resolveState) newBackend() (crowd.Backend, error) {
	rv, opts := st.rv, st.rv.opts
	if opts.Backend != nil {
		return opts.Backend, nil
	}
	if rv.truth == nil {
		rv.truth = record.NewPairSet()
		for _, p := range opts.Oracle {
			rv.truth.Add(record.ID(p.A), record.ID(p.B))
		}
	}
	pop := crowd.NewPopulation(opts.Seed, crowd.PopulationOptions{
		Size:        opts.Workers,
		SpammerRate: opts.SpammerRate,
	})
	sim, err := crowd.NewSimulator(rv.truth, pop, crowd.Config{
		Assignments:       opts.Assignments,
		QualificationTest: opts.QualificationTest,
		Seed:              opts.Seed,
		Parallelism:       opts.Parallelism,
		Difficulty:        crowd.DifficultyFromLikelihood(nil),
	})
	if err != nil {
		return nil, err
	}
	return sim, nil
}

// stageAggregate combines the replicated answers of every judged pair —
// cached and new — with the session's aggregator (Dawid–Skene EM by
// default) into ranked match decisions. The answers are re-aggregated in
// canonical order each delta, so cached pairs' posteriors keep
// sharpening as fresh evidence about the workers arrives, and a k-batch
// session aggregates exactly what a from-scratch run would. The
// aggregator's identity is bound to the verdict cache: one cache, one
// method, across every delta of the session. The posteriors are derived
// state and are not logged (see aggregateLocked). Every verdict — asked,
// deduced or machine — then ranks in one pass (rankedMatches).
func stageAggregate(_ context.Context, st *resolveState) (*resolveState, error) {
	rv := st.rv
	rv.mu.Lock()
	defer rv.mu.Unlock()
	rv.aggregateLocked()
	if st.res.Matches = rankedMatches(rv.cache); st.res.Matches == nil {
		return st, nil // nothing judged yet: nothing to rank or train from
	}
	if rv.opts.hybrid() {
		// Budget accounting and the retrain at the aggregation commit —
		// the canonical retrain point the route stage reads from. The
		// running spend total and the retrained model ride one Meta
		// frame, so recovery restores both and a round adds no sync.
		meta := store.Meta{}
		if st.res.CostDollars > 0 {
			rv.spent += st.res.CostDollars
			meta.Spent = rv.spent
		}
		changed, err := rv.trainLearnerLocked()
		if err != nil {
			return nil, err
		}
		if changed {
			meta.Model = rv.learner.State()
		}
		if meta.Spent != 0 || meta.Model != nil {
			if err := rv.log.Log(&meta); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}

// rankedMatches ranks every verdict in the cache — asked entries holding
// answers, deduced and machine ones — by posterior descending, then
// canonical pair order: SortMatches' order. The walk is canonical, so a
// stable sort keeps ties in pair order, and for posteriors ≥ +0, as
// probabilities are, the bits of the posterior complemented are a sort
// key in that order. It returns nil when nothing is judged.
func rankedMatches(cache *verdicts.Cache) []Match {
	ms, keys := make([]Match, 0, cache.Len()), make([]uint64, 0, cache.Len())
	plain := true
	for e := range cache.Entries() {
		if len(e.Answers) == 0 && e.Provenance == verdicts.Asked {
			continue // a likelihood without a verdict
		}
		ms = append(ms, Match{Pair: Pair{A: int(e.Pair.A), B: int(e.Pair.B)}, Confidence: e.Posterior})
		keys = append(keys, ^math.Float64bits(e.Posterior))
		plain = plain && !math.Signbit(e.Posterior) && !math.IsNaN(e.Posterior)
	}
	if len(ms) == 0 {
		return nil
	}
	rank := make([]int32, len(ms))
	for i := range rank {
		rank[i] = int32(i)
	}
	if plain {
		engine.SortByKey(keys, rank)
	} else {
		slices.SortFunc(rank, func(a, b int32) int {
			return cmp.Or(cmp.Compare(ms[b].Confidence, ms[a].Confidence), cmp.Compare(a, b))
		})
	}
	// Permute in place, cycle by cycle: slot k takes the match ranked k,
	// and a filled slot's rank becomes −1.
	for k := range rank {
		if rank[k] < 0 {
			continue
		}
		m, j := ms[k], k
		for int(rank[j]) != k {
			next := int(rank[j])
			ms[j], rank[j], j = ms[next], -1, next
		}
		ms[j], rank[j] = m, -1
	}
	return ms
}

// resolvePipeline builds the five-stage engine every resolve runs. The
// route stage sits between prune and generate so that only the pairs
// the router leaves uncertain are ever batched into HITs — which also
// makes every plan-only truncation at "generate" (EstimateCost,
// EstimateDelta) hybrid-aware for free. With Options.Hybrid off the
// stage is a pure pass-through and the pipeline behaves bit-identically
// to the four-stage one it replaced.
func resolvePipeline() *resolverPipeline {
	return engine.New(
		engine.Stage[*resolveState]{Name: "prune", Run: stagePrune},
		engine.Stage[*resolveState]{Name: "route", Run: stageRoute},
		engine.Stage[*resolveState]{Name: "generate", Run: stageGenerate},
		engine.Stage[*resolveState]{Name: "execute", Run: stageExecute},
		engine.Stage[*resolveState]{Name: "aggregate", Run: stageAggregate},
	)
}

// Resolve runs the hybrid human–machine workflow on the table: a one-shot
// resolution session. It is the single-batch form of the incremental
// Resolver — it adopts the table into a fresh session and resolves
// everything as one delta, so the batch and streaming paths share one
// prune → generate → execute → aggregate implementation.
func Resolve(t *Table, opts Options) (*Result, error) {
	return ResolveContext(context.Background(), t, opts)
}

// ResolveContext is Resolve bound to a context: cancelling ctx aborts the
// resolution mid-stage. A cancelled run returns ctx's error; any answers
// the crowd already delivered are persisted as partial assignment sets
// on the session (observable through a Resolver; a one-shot session is
// discarded with them).
func ResolveContext(ctx context.Context, t *Table, opts Options) (*Result, error) {
	r, err := NewResolver(t, opts)
	if err != nil {
		return nil, err
	}
	return r.ResolveDeltaContext(ctx)
}

// generatorFor maps the public enum to the internal strategy.
func generatorFor(g Generator, seed int64) hitgen.ClusterGenerator {
	switch g {
	case GenRandom:
		return hitgen.Random{Seed: seed}
	case GenBFS:
		return hitgen.BFS{}
	case GenDFS:
		return hitgen.DFS{}
	case GenApprox:
		return hitgen.Approx{}
	default:
		return hitgen.TwoTiered{}
	}
}

// Estimate is the projected footprint of a workflow configuration,
// computed without running the crowd. It supports the budget-based
// workflow the paper lists as future work: sweep thresholds, estimate,
// pick the cheapest configuration that fits.
type Estimate struct {
	// Candidates is the number of fresh pairs the resolve would judge.
	Candidates int
	// MachinePairs is how many of those candidates would be judged by
	// machine: all of them under MachineOnly; with Hybrid on, those the
	// router would resolve outside its uncertainty band. Always 0
	// otherwise, and for a fresh hybrid session (whose learner has no
	// verdicts to train from — see EstimateCost vs Resolver.EstimateDelta).
	MachinePairs int
	// CrowdPairs is the remainder that would be batched into HITs
	// (Candidates − MachinePairs).
	CrowdPairs int
	// HITs is the number of tasks that would be generated for CrowdPairs.
	HITs int
	// CostDollars is HITs × Assignments × $0.025.
	CostDollars float64
}

// EstimateCost prunes at the configured threshold, routes through the
// hybrid classifier (when Hybrid is on) and generates — but does not
// crowdsource — the HITs, returning the projected task count and cost.
// It is Resolver.EstimateDelta over a fresh throwaway session, so the
// estimate runs the same prune → route → generate stages as Resolve,
// truncated before the crowd ever executes, and agrees with an actual
// run by construction. Its learner state is exactly a fresh session's:
// untrained, every candidate projected to the crowd — which is also
// what a one-shot Resolve with the same options would do, so the
// projection stays faithful. To project a *live* hybrid session's next
// delta with the session's trained learner, use Resolver.EstimateDelta.
func EstimateCost(t *Table, opts Options) (*Estimate, error) {
	// An estimate is a throwaway session: never log it to the caller's
	// store, which belongs to the live session with the same options.
	opts.Store = nil
	r, err := NewResolver(t, opts)
	if err != nil {
		return nil, err
	}
	return r.EstimateDelta()
}

// SortMatches orders matches by confidence descending (tie-break by pair),
// in place. Resolve's output is already sorted; this helper re-sorts after
// caller-side filtering or merging.
func SortMatches(ms []Match) {
	slices.SortFunc(ms, func(a, b Match) int {
		return cmp.Or(cmp.Compare(b.Confidence, a.Confidence), cmp.Compare(a.Pair.A, b.Pair.A), cmp.Compare(a.Pair.B, b.Pair.B))
	})
}
