package crowd

import (
	"cmp"
	"context"
	"math/rand"
	"slices"
	"sync"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/hitgen"
	"github.com/crowder/crowder/internal/record"
)

// Simulator is the reference Backend: the Section 7.1 worker-model
// simulator repackaged behind the asynchronous HIT lifecycle. Posting
// simulates every assignment immediately (concurrently across HITs,
// deterministic per-HIT/per-pair RNG streams) and delivers the results on
// the Collect stream ordered by a virtual clock — each assignment's
// simulated completion time — so the lifecycle manager observes the same
// answers-arrive-over-time shape a live crowd produces, without wall-clock
// delay and bit-identically at every parallelism level.
type Simulator struct {
	truth record.PairSet
	pool  *Population
	cfg   Config
	st    *stream

	mu          sync.Mutex
	kind        HITKind
	kindSet     bool
	totalEffort float64
	hitCount    int
}

// NewSimulator builds the reference backend from the ground truth the
// simulated workers perturb, the worker population, and the run
// configuration (qualification test applied here, as in the synchronous
// path).
func NewSimulator(truth record.PairSet, pop *Population, cfg Config) (*Simulator, error) {
	cfg.defaults()
	pool, err := preparePool(pop, cfg)
	if err != nil {
		return nil, err
	}
	return &Simulator{truth: truth, pool: pool, cfg: cfg, st: newStream()}, nil
}

// Post simulates every assignment of the posted HITs and schedules their
// delivery in virtual-completion-time order.
func (s *Simulator) Post(ctx context.Context, hits []HIT) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	outcomes := make([]hitOutcome, len(hits))
	forEachHIT(len(hits), s.cfg.Parallelism, func(i int) {
		h := hits[i]
		if h.Kind == ClusterKind {
			outcomes[i] = s.simulateClusterHIT(h)
		} else {
			outcomes[i] = s.simulatePairHIT(h)
		}
	})

	total, pairAnswers := 0, 0
	for i, h := range hits {
		total += h.Assignments
		if h.Kind != ClusterKind {
			pairAnswers += len(outcomes[i].answers)
		}
	}
	asgs := make([]Assignment, 0, total)
	slotMajor := make([]aggregate.Answer, 0, pairAnswers)
	for i, o := range outcomes {
		h := hits[i]
		r := h.Assignments
		n := len(h.Pairs)
		for slot := 0; slot < r; slot++ {
			a := Assignment{HIT: h.ID, Slot: slot, Worker: -1, Seconds: o.seconds[slot]}
			if h.Kind == ClusterKind {
				// Cluster assignments are one worker's pass over the whole
				// group: answers are stored assignment-major, so each
				// slot's answers are already contiguous.
				a.Answers = o.answers[slot*n : (slot+1)*n : (slot+1)*n]
				a.Worker = o.workers[slot]
			} else {
				// Pair assignments replicate each pair to its own worker
				// set: answers are stored pair-major, so slot s gathers
				// every pair's s-th replica.
				lo := len(slotMajor)
				for p := 0; p < n; p++ {
					slotMajor = append(slotMajor, o.answers[p*r+slot])
				}
				a.Answers = slotMajor[lo:len(slotMajor):len(slotMajor)]
			}
			asgs = append(asgs, a)
		}
	}
	// The virtual clock: deliver in simulated completion order. The sort
	// is stable over (Ord, slot) construction order, so ties — and thus
	// the whole stream — are deterministic.
	slices.SortStableFunc(asgs, func(a, b Assignment) int { return cmp.Compare(a.Seconds, b.Seconds) })

	s.mu.Lock()
	for i, o := range outcomes {
		s.totalEffort += o.effort
		s.hitCount++
		if !s.kindSet {
			s.kind = hits[i].Kind
			s.kindSet = true
		}
	}
	s.mu.Unlock()

	s.st.push(asgs...)
	return nil
}

// Collect returns the virtual-clock-ordered assignment stream.
func (s *Simulator) Collect(ctx context.Context) <-chan Assignment {
	return s.st.channel(ctx)
}

// TotalSeconds implements Scheduler: the batch makespan under the
// attraction-scaled list-scheduling model (workers drawn by the interface
// kind, deterred by over-fair effort).
func (s *Simulator) TotalSeconds(assignmentSeconds []float64) float64 {
	s.mu.Lock()
	attractionBase := pairAttraction
	if s.kindSet && s.kind == ClusterKind {
		attractionBase = clusterAttraction
	}
	avgEffort := 0.0
	if s.hitCount > 0 {
		avgEffort = s.totalEffort / float64(s.hitCount)
	}
	s.mu.Unlock()
	attraction := attractionBase * effortDiscount(avgEffort, fairComparisons)
	return makespan(assignmentSeconds, s.pool, attraction)
}

// simulatePairHIT simulates one pair-based HIT: every pair is replicated
// to Assignments distinct workers drawn from the pair's own RNG stream
// (pairSeed), so a pair's verdicts depend only on (Config.Seed, pair) —
// never on which HIT the pair was batched into or when that HIT ran.
func (s *Simulator) simulatePairHIT(h HIT) hitOutcome {
	cfg := &s.cfg
	r := h.Assignments
	var o hitOutcome
	slotSpeed := make([]float64, r)
	rng := simRands.Get().(*rand.Rand)
	defer simRands.Put(rng)
	for i, p := range h.Pairs {
		rng.Seed(pairSeed(cfg.Seed, p))
		isMatch := s.truth.Has(p.A, p.B)
		difficulty := cfg.pairDifficulty(h, i)
		for slot, w := range pickDistinct(s.pool, r, rng) {
			o.workers = append(o.workers, w.ID)
			o.answers = append(o.answers, aggregate.Answer{
				Pair:   p,
				Worker: w.ID,
				Match:  w.AnswerWithDifficulty(isMatch, difficulty, rng),
			})
			slotSpeed[slot] += w.Speed
		}
	}
	hitSeconds := baseSeconds + secondsPerPairComparison*float64(len(h.Pairs))
	for slot := 0; slot < r; slot++ {
		speed := 1.0
		if len(h.Pairs) > 0 {
			speed = slotSpeed[slot] / float64(len(h.Pairs))
		}
		o.seconds = append(o.seconds, hitSeconds*speed)
	}
	o.effort = float64(len(h.Pairs))
	return o
}

// simulateClusterHIT simulates one cluster-based HIT: each assigned
// worker judges every covered pair through their confusion matrix, and
// the judgments are transitively closed by union-find (the
// colour-labelling interface forces records with the same label into
// one entity). The worker's completion time follows the Section 6
// comparison model applied to their own inferred partition. Randomness
// comes from the HIT's ordinal stream (hitSeed), keeping concurrent
// execution bit-identical; a covered pair's truth and difficulty are
// looked up once, however many workers judge it.
func (s *Simulator) simulateClusterHIT(h HIT) hitOutcome {
	cfg := &s.cfg
	rng := simRands.Get().(*rand.Rand)
	defer simRands.Put(rng)
	rng.Seed(hitSeed(cfg.Seed, streamClusterHITs, h.Ord))
	n := len(h.Pairs)
	isMatch := make([]bool, n)
	difficulty := make([]float64, n)
	for i, p := range h.Pairs {
		isMatch[i] = s.truth.Has(p.A, p.B)
		difficulty[i] = cfg.pairDifficulty(h, i)
	}
	workers := pickDistinct(s.pool, h.Assignments, rng)
	o := hitOutcome{
		answers: make([]aggregate.Answer, 0, len(workers)*n),
		seconds: make([]float64, 0, len(workers)),
		workers: make([]int, 0, len(workers)),
	}
	judged := make([]bool, n)
	for _, w := range workers {
		for i := range judged {
			judged[i] = w.AnswerWithDifficulty(isMatch[i], difficulty[i], rng)
		}
		closed, sizes := closeOver(h.Records, h.Pairs, judged)
		for i, p := range h.Pairs {
			o.answers = append(o.answers, aggregate.Answer{Pair: p, Worker: w.ID, Match: closed[i]})
		}
		comparisons := hitgen.BestOrderComparisons(sizes)
		o.workers = append(o.workers, w.ID)
		o.seconds = append(o.seconds, (baseSeconds+secondsPerClusterComparison*float64(comparisons))*w.Speed)
	}
	o.effort = float64(hitgen.BestOrderComparisons(hitgen.EntitySizes(hitgen.ClusterHIT{Records: h.Records}, s.truth))) *
		secondsPerClusterComparison / secondsPerPairComparison
	return o
}
