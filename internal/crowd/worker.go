// Package crowd simulates the Amazon Mechanical Turk marketplace of
// Section 7.1: a population of workers with heterogeneous reliability
// (including spammers), an optional qualification test, replicated
// assignments (each HIT done by multiple distinct workers), per-assignment
// completion-time modelling based on the Section 6 comparison counts, and
// a list-scheduling makespan model capturing worker attraction (pair-based
// interfaces draw more workers than the unfamiliar cluster-based one —
// the effect behind Figure 14).
//
// The paper's experiments ran on live AMT; this simulator exposes the same
// knobs (qualification test on/off, HIT type, assignment replication) so
// every Section 7.3/7.4 figure can be regenerated with the mechanisms the
// paper identifies producing the same qualitative shapes.
package crowd

import (
	"math/rand"
)

// WorkerClass categorizes simulated workers.
type WorkerClass int

const (
	// Reliable workers answer carefully (accuracy ≈ 0.9–0.98).
	Reliable WorkerClass = iota
	// Sloppy workers rush (accuracy ≈ 0.75–0.9).
	Sloppy
	// Spammer workers answer randomly or with a fixed bias, the malicious
	// behaviour Section 7.1's qualification test exists to weed out.
	Spammer
)

func (c WorkerClass) String() string {
	switch c {
	case Reliable:
		return "reliable"
	case Sloppy:
		return "sloppy"
	case Spammer:
		return "spammer"
	default:
		return "unknown"
	}
}

// Worker is one simulated crowd worker.
type Worker struct {
	ID    int
	Class WorkerClass
	// TPR is P(answers "match" | pair is a true match).
	TPR float64
	// TNR is P(answers "non-match" | pair is a true non-match).
	TNR float64
	// Speed scales task completion time (1.0 = average; higher is slower).
	Speed float64
}

// Answer returns the worker's (noisy) verdict for a pair whose true status
// is isMatch.
func (w *Worker) Answer(isMatch bool, rng *rand.Rand) bool {
	return w.AnswerWithDifficulty(isMatch, 1, rng)
}

// AnswerWithDifficulty returns the worker's verdict for a pair with the
// given difficulty in [0, 1]. Difficulty scales a conscientious worker's
// error probability: obvious pairs (near-identical duplicates, or clearly
// unrelated records) are rarely misjudged, while borderline pairs carry
// the worker's full error rate. Spammers ignore content, so their answer
// distribution is unaffected by difficulty — which is exactly why the
// qualification test and EM aggregation are needed.
func (w *Worker) AnswerWithDifficulty(isMatch bool, difficulty float64, rng *rand.Rand) bool {
	if difficulty < 0 {
		difficulty = 0
	}
	if difficulty > 1 {
		difficulty = 1
	}
	scale := difficulty
	if w.Class == Spammer {
		scale = 1
	} else {
		// Even trivial pairs suffer residual slips (misclicks, fatigue).
		scale = 0.1 + 0.9*difficulty
	}
	if isMatch {
		errProb := (1 - w.TPR) * scale
		return rng.Float64() >= errProb
	}
	errProb := (1 - w.TNR) * scale
	return rng.Float64() < errProb
}

// NoSpammers is the SpammerRate sentinel for an explicitly clean,
// spammer-free pool. The zero value keeps the 0.12 default (so the empty
// options literal behaves as before); any negative value means exactly
// zero spammers.
const NoSpammers = -1.0

// PopulationOptions configures worker-pool generation.
type PopulationOptions struct {
	// Size is the number of workers (default 120).
	Size int
	// SpammerRate is the fraction of spammers. 0 means the default 0.12;
	// a negative value (NoSpammers) means a clean pool with no spammers.
	SpammerRate float64
}

// sloppyRate is the fraction of sloppy workers in a generated pool.
const sloppyRate = 0.20

func (o *PopulationOptions) defaults() {
	if o.Size <= 0 {
		o.Size = 120
	}
	if o.SpammerRate < 0 {
		o.SpammerRate = 0
	} else if o.SpammerRate == 0 {
		o.SpammerRate = 0.12
	}
}

// Population is a pool of simulated workers.
type Population struct {
	Workers []*Worker
}

// NewPopulation generates a deterministic worker pool: SpammerRate
// spammers, sloppyRate sloppy workers, the rest reliable.
func NewPopulation(seed int64, opts PopulationOptions) *Population {
	opts.defaults()
	rng := rand.New(rand.NewSource(seed))
	p := &Population{}
	for i := 0; i < opts.Size; i++ {
		w := &Worker{ID: i, Speed: 0.7 + 0.6*rng.Float64()}
		r := rng.Float64()
		switch {
		case r < opts.SpammerRate:
			w.Class = Spammer
			switch rng.Intn(3) {
			case 0: // coin-flipper
				w.TPR, w.TNR = 0.5, 0.5
			case 1: // always answers "match"
				w.TPR, w.TNR = 0.95, 0.05
			default: // always answers "non-match"
				w.TPR, w.TNR = 0.05, 0.95
			}
		case r < opts.SpammerRate+sloppyRate:
			w.Class = Sloppy
			w.TPR = 0.75 + 0.15*rng.Float64()
			w.TNR = 0.75 + 0.15*rng.Float64()
			w.Speed *= 0.8 // sloppy workers are fast
		default:
			w.Class = Reliable
			w.TPR = 0.90 + 0.08*rng.Float64()
			w.TNR = 0.90 + 0.08*rng.Float64()
		}
		p.Workers = append(p.Workers, w)
	}
	return p
}

// QualificationTest simulates Section 7.1's screening: each worker answers
// three record pairs; only workers getting all three right may work.
// A worker's chance per question is their average accuracy, so spammers
// pass with probability ≈ 0.5³ while reliable workers pass with ≈ 0.85.
func (p *Population) QualificationTest(seed int64) *Population {
	rng := rand.New(rand.NewSource(seed))
	qualified := &Population{}
	// The three test pairs: one match, two non-matches (a typical mix).
	testTruth := []bool{true, false, false}
	for _, w := range p.Workers {
		pass := true
		for _, isMatch := range testTruth {
			if w.Answer(isMatch, rng) != isMatch {
				pass = false
				break
			}
		}
		if pass {
			qualified.Workers = append(qualified.Workers, w)
		}
	}
	return qualified
}

// Size returns the number of workers in the pool.
func (p *Population) Size() int { return len(p.Workers) }
