package crowd

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sort"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/engine"
	"github.com/crowder/crowder/internal/hitgen"
	"github.com/crowder/crowder/internal/record"
)

// Pricing constants from Section 7.1: $0.02 per HIT to the worker plus
// $0.005 platform fee, and 3 assignments per HIT.
const (
	DollarsPerAssignment = 0.025
	DefaultAssignments   = 3
)

// The worker-time and attraction model of Section 7.1 and Figure 14(b).
const (
	// baseSeconds is the fixed per-assignment overhead: reading the
	// instructions, loading the page, submitting.
	baseSeconds = 20
	// secondsPerPairComparison is the time to tick one pair in a
	// pair-based HIT.
	secondsPerPairComparison = 5
	// secondsPerClusterComparison is the time for one implicit
	// comparison in a cluster-based HIT; lower than the pair cost
	// because sorting and colour labels let workers scan records on one
	// screen.
	secondsPerClusterComparison = 1.5

	// pairAttraction and clusterAttraction scale how much of the worker
	// pool each interface draws (1.0 and 0.45). The paper found
	// pair-based HITs "attracted more workers ... due to the unfamiliar
	// interface of cluster-based HITs".
	pairAttraction    = 1.0
	clusterAttraction = 0.45
	// fairComparisons is the per-HIT effort workers consider fair at the
	// fixed price; HITs demanding more deter workers proportionally.
	// This drives Figure 14(b), where 28-pair HITs at $0.02 attracted
	// few workers.
	fairComparisons = 20
)

// Config parameterizes a crowd run.
type Config struct {
	// Assignments is the replication factor per HIT (default 3).
	Assignments int
	// QualificationTest gates workers through the three-pair screen.
	QualificationTest bool
	// Seed drives all stochastic choices (worker selection, answers).
	Seed int64
	// Parallelism bounds the goroutines executing HITs concurrently.
	// 0 (the default) means GOMAXPROCS. Every HIT draws from its own RNG
	// stream seeded by (Seed, HIT index), so the answers are bit-identical
	// at every parallelism level.
	Parallelism int

	// Difficulty optionally maps each pair to a judgment difficulty in
	// [0, 1] (0 = trivially obvious, 1 = genuinely ambiguous). Workers'
	// error rates scale with it. When nil every pair has difficulty 1.
	// A natural choice derives difficulty from machine similarity: pairs
	// near the decision boundary are hard, near-identical or clearly
	// unrelated ones are easy.
	Difficulty func(record.Pair) float64
}

// difficultyOf resolves the difficulty of a pair under the config.
func (c *Config) difficultyOf(p record.Pair) float64 {
	if c.Difficulty == nil {
		return 1
	}
	return c.Difficulty(p)
}

// pairDifficulty is the difficulty of h's i-th pair: from the
// likelihood the HIT carries, else under the config.
func (c *Config) pairDifficulty(h HIT, i int) float64 {
	if h.Likelihoods != nil {
		return likelihoodDifficulty(h.Likelihoods[i])
	}
	return c.difficultyOf(h.Pairs[i])
}

// DifficultyFromLikelihood builds a difficulty function from machine
// similarity scores: pairs with similarity near 0.5 are ambiguous even for
// people (difficulty → 1), while near-identical or clearly unrelated pairs
// are obvious (difficulty → 0). Pairs absent from the map get 0.5.
func DifficultyFromLikelihood(likelihood map[record.Pair]float64) func(record.Pair) float64 {
	return func(p record.Pair) float64 {
		s, ok := likelihood[p]
		if !ok {
			return 0.5
		}
		return likelihoodDifficulty(s)
	}
}

// likelihoodDifficulty maps one similarity score to its difficulty.
func likelihoodDifficulty(s float64) float64 {
	d := 1 - 2*(s-0.5)
	if s < 0.5 {
		d = 1 - 2*(0.5-s)
	}
	if d < 0 {
		return 0
	}
	if d > 1 {
		return 1
	}
	return d
}

func (c *Config) defaults() {
	if c.Assignments <= 0 {
		c.Assignments = DefaultAssignments
	}
}

// Result is the outcome of crowdsourcing a batch of HITs.
type Result struct {
	// Answers holds every (pair, worker, verdict) triple across all
	// assignments, ready for aggregation.
	Answers []aggregate.Answer
	// Spans bounds each HIT's answers: those of the i-th HIT executed
	// are Answers[Spans[i]:Spans[i+1]], empty for a retracted HIT.
	Spans []int
	// AssignmentSeconds lists each assignment's completion time.
	AssignmentSeconds []float64
	// TotalSeconds is the makespan: when the last assignment finished
	// under the worker-scheduling model.
	TotalSeconds float64
	// CostDollars is the total payment (assignments × $0.025).
	CostDollars float64
	// WorkersUsed is the number of distinct workers who completed at
	// least one assignment.
	WorkersUsed int
	// TopUps counts replication top-ups posted for expired assignments
	// (always 0 under the simulated backend).
	TopUps int
	// RetractedHITs counts the HITs withdrawn mid-flight because their
	// verdicts became deducible (ExecuteOptions.Retractable). Their
	// collected assignments are paid for — and counted in CostDollars —
	// but excluded from Answers.
	RetractedHITs int
}

// MedianAssignmentSeconds returns the median per-assignment completion
// time (Figure 13's metric).
func (r *Result) MedianAssignmentSeconds() float64 {
	if len(r.AssignmentSeconds) == 0 {
		return 0
	}
	s := append([]float64(nil), r.AssignmentSeconds...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// RNG stream tags keeping the pair- and cluster-based answer streams
// distinct for the same base seed (the legacy code used Seed+1 / Seed+2).
const (
	streamPairHITs    = 1
	streamClusterHITs = 2
)

// pairSeed derives the RNG seed for one pair's judgments from the base
// seed and the pair's endpoints, with a splitmix64-style finalizer.
// Seeding per pair — rather than per HIT — makes a pair's verdicts a pure
// function of (seed, pair): re-batching the same pairs into different
// HITs, or judging them in a later delta batch, yields bit-identical
// answers. The incremental resolver's verdict cache relies on exactly
// this property to make k-batch resolution reproduce a from-scratch run.
func pairSeed(base int64, p record.Pair) int64 {
	z := uint64(base) ^ 0x9e3779b97f4a7c15*(uint64(p.A)+1) ^ 0xbf58476d1ce4e5b9*(uint64(p.B)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// hitSeed derives the RNG seed for one HIT from the base seed, the stream
// tag, and the HIT's index, with a splitmix64-style finalizer so adjacent
// indexes yield decorrelated streams. Seeding per HIT — rather than
// advancing one shared RNG — is what makes concurrent execution
// bit-identical to sequential: a HIT's randomness no longer depends on how
// many draws earlier HITs consumed.
func hitSeed(base int64, stream, hit int) int64 {
	z := uint64(base) + 0x9e3779b97f4a7c15*uint64(hit+1) + 0xbf58476d1ce4e5b9*uint64(stream)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// hitOutcome is one HIT's simulated result, produced independently of
// every other HIT so HITs can execute on any goroutine in any order.
type hitOutcome struct {
	answers []aggregate.Answer
	seconds []float64
	workers []int
	effort  float64
}

// forEachHIT executes fn(h) for every HIT index across min(parallelism,
// len) worker goroutines. fn must only write state owned by index h.
func forEachHIT(n, parallelism int, fn func(h int)) {
	if n == 0 {
		return
	}
	workers := engine.WorkerCount(parallelism, n)
	engine.Workers(workers, func(w int) {
		for h := w; h < n; h += workers {
			fn(h)
		}
	})
}

// RunPairHITs crowdsources pair-based HITs through the asynchronous
// lifecycle against the reference simulated backend: every pair in a HIT
// is replicated to Assignments distinct workers, each answering through
// their confusion matrix. Worker selection and answers draw from a
// per-pair RNG stream (pairSeed), so a pair's verdicts depend only on
// (Config.Seed, pair) — never on which HIT the pair was batched into or
// when that HIT ran. Re-batching the same candidate set therefore
// reproduces the same answers bit-for-bit, the invariant behind the
// incremental resolver's verdict cache. HITs simulate concurrently
// (Config.Parallelism) with deterministic output.
//
// The scheduling model stays at HIT granularity: each HIT still reports
// Assignments completion times (the per-pair workers' mean speed applied
// to the HIT's comparison load) and costs Assignments × $0.025.
func RunPairHITs(hits []hitgen.PairHIT, truth record.PairSet, pop *Population, cfg Config) (*Result, error) {
	cfg.defaults()
	sim, err := NewSimulator(truth, pop, cfg)
	if err != nil {
		return nil, err
	}
	pairLists := make([][]record.Pair, len(hits))
	for i, h := range hits {
		pairLists[i] = h.Pairs
	}
	return ExecuteHITs(context.Background(), sim, PairHITsFromGen(pairLists, cfg.Assignments), ExecuteOptions{})
}

// RunClusterHITs crowdsources cluster-based HITs through the asynchronous
// lifecycle against the reference simulated backend. Each worker labels
// the records of the HIT: the simulator draws noisy pairwise judgments on
// the covered pairs and then transitively closes them (the
// colour-labelling interface of Figure 4 forces records with the same
// label into one entity). The worker's completion time follows the
// Section 6 comparison model applied to their own inferred partition.
// The HITs must cover every pair (hitgen.Covers, with no size bound).
func RunClusterHITs(hits []hitgen.ClusterHIT, pairs []record.Pair, truth record.PairSet, pop *Population, cfg Config) (*Result, error) {
	cfg.defaults()
	sim, err := NewSimulator(truth, pop, cfg)
	if err != nil {
		return nil, err
	}
	covered, _, err := hitgen.Covers(pairs, hits, math.MaxInt)
	if err != nil {
		return nil, err
	}
	records := make([][]record.ID, len(hits))
	for i, h := range hits {
		records[i] = h.Records
	}
	return ExecuteHITs(context.Background(), sim, ClusterHITsFromGen(records, covered, cfg.Assignments), ExecuteOptions{})
}

// preparePool applies the qualification test if configured and validates
// pool size against the replication factor.
func preparePool(pop *Population, cfg Config) (*Population, error) {
	pool := pop
	if cfg.QualificationTest {
		pool = pop.QualificationTest(cfg.Seed + 99)
	}
	if pool.Size() < cfg.Assignments {
		return nil, errors.New("crowd: not enough (qualified) workers for the replication factor")
	}
	return pool, nil
}

// pickDistinct samples n distinct workers uniformly: the first n of
// rng.Perm(pop.Size()), with Perm's draws. Perm shuffles inside out —
// step i moves entry j ≤ i to i and puts i at j — so an entry past n
// never moves below it, and only the first n need storing.
func pickDistinct(pop *Population, n int, rng *rand.Rand) []*Worker {
	perm := make([]int, n)
	for i := 0; i < pop.Size(); i++ {
		if j := rng.Intn(i + 1); j < n {
			if i < n {
				perm[i] = perm[j]
			}
			perm[j] = i
		}
	}
	out := make([]*Worker, n)
	for i, w := range perm {
		out[i] = pop.Workers[w]
	}
	return out
}

// effortDiscount models price fairness: HITs demanding more than the fair
// effort at the fixed price deter workers proportionally.
func effortDiscount(avgEffort, fair float64) float64 {
	if avgEffort <= fair || avgEffort <= 0 {
		return 1
	}
	return fair / avgEffort
}

// makespan estimates when all assignments finish: the active worker count
// is the pool scaled by the interface's attraction, and assignments are
// list-scheduled greedily (longest first) onto those workers — the
// classic LPT bound on parallel makespan.
func makespan(assignments []float64, pool *Population, attraction float64) float64 {
	if len(assignments) == 0 {
		return 0
	}
	active := int(float64(pool.Size()) * attraction)
	if active < 1 {
		active = 1
	}
	if active > len(assignments) {
		active = len(assignments)
	}
	sorted := append([]float64(nil), assignments...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	loads := make([]float64, active)
	for _, a := range sorted {
		// Assign to the least-loaded worker.
		min := 0
		for i := 1; i < active; i++ {
			if loads[i] < loads[min] {
				min = i
			}
		}
		loads[min] += a
	}
	max := loads[0]
	for _, l := range loads[1:] {
		if l > max {
			max = l
		}
	}
	return max
}
