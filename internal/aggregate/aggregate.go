// Package aggregate combines the multiple crowd assignments of each HIT
// into final match decisions. Following Section 7.3, the primary method is
// the EM algorithm of Dawid & Skene (1979), which jointly estimates
// per-worker confusion matrices and per-pair match posteriors and is
// robust to spammers; simple majority voting is provided as the baseline
// the paper argues against ("susceptible to spammers").
package aggregate

import (
	"cmp"
	"math"
	"slices"

	"github.com/crowder/crowder/internal/record"
)

// Answer is one worker's verdict on one record pair.
type Answer struct {
	Pair   record.Pair
	Worker int
	Match  bool
}

// SortCanonical orders answers by (pair, worker, verdict), in place. The
// order is a pure function of the answer *set*, independent of the
// sequence that produced it — the invariant that makes re-aggregating
// after k incremental batches bit-identical to aggregating a one-shot
// run: Dawid–Skene's floating-point accumulations see the same operands
// in the same order. Every caller that aggregates a union of answer
// sources sorts through this one helper.
//
// The comparator looks at every field, so answers it calls equal are
// identical and the unstable sort's output is fully determined.
func SortCanonical(answers []Answer) {
	slices.SortFunc(answers, func(a, b Answer) int {
		if c := cmp.Or(record.ComparePairs(a.Pair, b.Pair), cmp.Compare(a.Worker, b.Worker)); c != 0 || a.Match == b.Match {
			return c
		}
		if b.Match {
			return -1 // false before true
		}
		return 1
	})
}

// Posterior maps each judged pair to its estimated probability of being a
// true match.
type Posterior map[record.Pair]float64

// Ranked returns the judged pairs sorted by posterior descending
// (tie-break on canonical pair order), the ranked list that feeds
// precision-recall evaluation.
func (p Posterior) Ranked() []record.Pair {
	type ranked struct {
		pair record.Pair
		post float64
	}
	rs := make([]ranked, 0, len(p))
	for pr, v := range p {
		rs = append(rs, ranked{pr, v})
	}
	slices.SortFunc(rs, func(a, b ranked) int {
		return cmp.Or(cmp.Compare(b.post, a.post), record.ComparePairs(a.pair, b.pair))
	})
	pairs := make([]record.Pair, len(rs))
	for i, r := range rs {
		pairs[i] = r.pair
	}
	return pairs
}

// Matches returns the pairs whose posterior is at least the threshold
// (0.5 for maximum-a-posteriori decisions).
func (p Posterior) Matches(threshold float64) record.PairSet {
	out := record.NewPairSet()
	for pr, prob := range p {
		if prob >= threshold {
			out.Add(pr.A, pr.B)
		}
	}
	return out
}

// MajorityVote returns, for each pair, the fraction of its answers that
// say "match": the posteriors EM starts from.
func MajorityVote(answers []Answer) Posterior {
	return indexAnswers(answers).posterior()
}

// DawidSkeneOptions configures the EM run.
type DawidSkeneOptions struct {
	// MaxIterations bounds the EM loop (default 100).
	MaxIterations int
	// Tolerance stops EM when the max posterior change falls below it
	// (default 1e-6).
	Tolerance float64
	// Smoothing is the additive pseudocount protecting confusion-matrix
	// estimates from zeros (default 0.01).
	Smoothing float64
	// PriorAlpha and PriorBeta are the Beta(α, β) prior on the match
	// prevalence: the M-step estimates the class prior as the MAP value
	// (Σposterior + α − 1) / (n + α + β − 2) instead of the bare
	// maximum-likelihood ratio. An informative prior (α, β > 1) keeps
	// the learned prevalence off the 0/1 boundary by construction — the
	// principled replacement for clipping at a bare ε. The defaults are
	// 1, 1 (the uniform prior): the estimate reduces to Σposterior/n,
	// bit-identical to the historical behavior, and the ε guard below
	// remains only for that uniform case.
	PriorAlpha, PriorBeta float64
}

func (o *DawidSkeneOptions) defaults() {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 100
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-6
	}
	if o.Smoothing <= 0 {
		o.Smoothing = 0.01
	}
	if o.PriorAlpha <= 0 {
		o.PriorAlpha = 1
	}
	if o.PriorBeta <= 0 {
		o.PriorBeta = 1
	}
}

// mapClassPrior is the shared M-step prevalence estimate: the MAP value
// of a Beta(α, β) posterior over priorSum "match" observations out of n,
// guarded against the degenerate log(0) boundary. With the uniform
// α = β = 1 every correction term is exactly 0.0, so the arithmetic —
// and therefore the output bits — match the historical Σposterior/n.
func mapClassPrior(priorSum float64, nPairs int, alpha, beta float64) float64 {
	prior := (priorSum + (alpha - 1)) / (float64(nPairs) + (alpha + beta - 2))
	if prior < 1e-9 {
		prior = 1e-9
	}
	if prior > 1-1e-9 {
		prior = 1 - 1e-9
	}
	return prior
}

// confusion is one worker's confusion matrix conf[c][l] = P(answers l |
// class c), or its expected counts; classes and labels: 0 = non-match,
// 1 = match.
type confusion = [2][2]float64

// answerIndex is the dense view of an answer set shared by the EM
// aggregators. Workers are numbered by first appearance and each vote is
// packed into one code, dense worker << 1 | label (1 = match). A pair's
// signature is the ordered sequence of its vote codes; pairs with the
// same signature start from the same majority fraction and, since every
// E-step reads nothing of a pair but its codes, keep the same posterior
// in every iteration — so EM tracks one posterior per signature. All of
// it is integer bookkeeping plus the same float divisions the
// aggregators always performed, so it cannot perturb a single output bit.
type answerIndex struct {
	pairs []record.Pair
	sigOf []int32 // signature of each pair
	// Signature s's codes are sigCodes[sigStart[s]:sigStart[s+1]].
	sigStart, sigCodes []int32
	// The code-major vote list: the signatures of code k's votes, in pair
	// order, are codeSigs[codeStart[k]:codeStart[k+1]].
	codeStart, codeSigs []int32
	nWorkers            int
	post                []float64 // per signature: majority-vote initialization, mutated by EM

	// Scratch a reused index builds and runs EM in, so a rebuild
	// allocates nothing once the buffers have grown to the answer set.
	of, codes, start, votes []int32
	workerAt                []int32          // dense worker + 1 by worker ID, below denseWorkers
	sigIdx                  map[uint64]int32 // signature by its codes' hash
	counts, conf            []confusion
	logConf                 [][2]float64
}

// denseWorkers bounds the worker IDs numbered through a slice; IDs
// outside [0, denseWorkers) go through a map.
const denseWorkers = 1 << 16

// indexAnswers builds a fresh index over the answers.
func indexAnswers(answers []Answer) *answerIndex {
	ix := new(answerIndex)
	ix.build(answers)
	return ix
}

// build rebuilds the index over the answers, in any order, reusing its
// buffers. Canonical input — pair-major, as Cache.Answered hands it —
// numbers pairs by run; other input looks a pair up in a map when the
// pair changes from the previous answer. Workers are numbered by first
// appearance, because MAP's pool sums run in worker order.
func (ix *answerIndex) build(answers []Answer) {
	var pairIdx map[record.Pair]int32
	if !slices.IsSortedFunc(answers, func(a, b Answer) int { return record.ComparePairs(a.Pair, b.Pair) }) {
		pairIdx = make(map[record.Pair]int32)
	}
	workerIdx := map[int]*int32{}
	clear(ix.workerAt)
	ix.pairs, ix.nWorkers = ix.pairs[:0], 0
	ix.of, ix.codes = resize(ix.of, len(answers)), resize(ix.codes, len(answers))
	of := ix.of // pair of each answer; later, signature of each vote
	for i, a := range answers {
		if i > 0 && a.Pair == answers[i-1].Pair {
			of[i] = of[i-1]
		} else if p, ok := pairIdx[a.Pair]; ok {
			of[i] = p
		} else {
			of[i] = int32(len(ix.pairs))
			ix.pairs = append(ix.pairs, a.Pair)
			if pairIdx != nil {
				pairIdx[a.Pair] = of[i]
			}
		}
		var w *int32 // the worker's number + 1, 0 when unnumbered
		if 0 <= a.Worker && a.Worker < denseWorkers {
			if a.Worker >= len(ix.workerAt) {
				ix.workerAt = append(ix.workerAt, make([]int32, a.Worker+1-len(ix.workerAt))...)
			}
			w = &ix.workerAt[a.Worker]
		} else if w = workerIdx[a.Worker]; w == nil {
			w = new(int32)
			workerIdx[a.Worker] = w
		}
		if *w == 0 {
			ix.nWorkers++
			*w = int32(ix.nWorkers)
		}
		ix.codes[i] = (*w - 1) << 1
		if a.Match {
			ix.codes[i] |= 1
		}
	}
	ix.start, ix.votes = bucket(of, ix.codes, len(ix.pairs), ix.start, ix.votes)

	// A hash hit is compared code by code; a pair whose hash collides
	// with another signature's starts a signature of its own, which EM
	// runs on the same operands, so the posteriors are the same.
	ix.sigOf, ix.sigStart, ix.sigCodes = resize(ix.sigOf, len(ix.pairs)), append(ix.sigStart[:0], 0), ix.sigCodes[:0]
	ix.post = ix.post[:0]
	if ix.sigIdx == nil {
		ix.sigIdx = make(map[uint64]int32)
	}
	clear(ix.sigIdx)
	for i := range ix.pairs {
		vs := ix.votes[ix.start[i]:ix.start[i+1]]
		h := uint64(len(vs))
		for _, c := range vs {
			h = (h ^ uint64(c)) * 0x100000001b3
		}
		s, ok := ix.sigIdx[h]
		if !ok || !slices.Equal(ix.sigCodes[ix.sigStart[s]:ix.sigStart[s+1]], vs) {
			s = int32(len(ix.post))
			if !ok {
				ix.sigIdx[h] = s
			}
			ix.sigCodes = append(ix.sigCodes, vs...)
			ix.sigStart = append(ix.sigStart, int32(len(ix.sigCodes)))
			yes := 0
			for _, c := range vs {
				yes += int(c & 1)
			}
			ix.post = append(ix.post, float64(yes)/float64(len(vs)))
		}
		ix.sigOf[i] = s
		for j := ix.start[i]; j < ix.start[i+1]; j++ {
			of[j] = s
		}
	}
	ix.codeStart, ix.codeSigs = bucket(ix.votes, of, 2*ix.nWorkers, ix.codeStart, ix.codeSigs)
}

// resize returns s with length n, reusing its backing array when it is
// large enough; the contents are unspecified.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// bucket is a stable counting sort into the start and out buffers: it
// groups vals by their keys (each below n), in input order within a key;
// key k's values are out[start[k]:start[k+1]].
func bucket(keys, vals []int32, n int, start, out []int32) ([]int32, []int32) {
	start = resize(start, n+1)
	clear(start)
	for _, k := range keys {
		start[k+1]++
	}
	for k := 0; k < n; k++ {
		start[k+1] += start[k]
	}
	out = resize(out, len(keys))
	for i, k := range keys {
		out[start[k]] = vals[i]
		start[k]++
	}
	// Each start[k] advanced to the end of bucket k: shift them back.
	copy(start[1:], start[:n])
	start[0] = 0
	return start, out
}

// dense returns each pair's posterior, in pair order.
func (ix *answerIndex) dense() []float64 {
	out := make([]float64, len(ix.sigOf))
	for i, s := range ix.sigOf {
		out[i] = ix.post[s]
	}
	return out
}

// posterior copies the dense posterior back out under its pair keys.
func (ix *answerIndex) posterior() Posterior {
	out := make(Posterior, len(ix.pairs))
	for i, pr := range ix.pairs {
		out[pr] = ix.post[ix.sigOf[i]]
	}
	return out
}

// em runs the EM loop both aggregators share, in place on ix.post, for at
// most maxIter iterations or until no posterior moves by tol. Each
// iteration is the M-step — the class prior under Beta(alpha, beta), then
// every worker's expected confusion counts given the posteriors, which
// rows turns into confusion rows conf[w][c][l] = P(worker answers l |
// class c) — followed by the E-step, which recomputes each posterior in
// log space.
//
// Every floating-point sum adds the operands of a per-pair, per-vote loop
// in that loop's order, so the posteriors are bit-identical to it:
//   - the prior sums the posterior of every pair, in pair order;
//   - the M-step sums each count over its code's votes in pair order,
//     which is the order a pair-major walk adds them to that count;
//   - the E-step runs once per signature. A pair's log sums would add its
//     signature's log-table entries in the same order, and its posterior
//     and change equal its signature's, so the max change is the same.
//
// The E-step takes the logs of the confusion rows and of the prior once
// per iteration, not once per vote; math.Log is pure, so this too adds
// the same operands.
func (ix *answerIndex) em(maxIter int, tol, alpha, beta float64, rows func(counts, conf []confusion)) {
	post := ix.post
	ix.counts, ix.conf = resize(ix.counts, ix.nWorkers), resize(ix.conf, ix.nWorkers)
	ix.logConf = resize(ix.logConf, 2*ix.nWorkers) // logConf[code][c]
	counts, conf, logConf := ix.counts, ix.conf, ix.logConf
	for iter := 0; iter < maxIter; iter++ {
		var priorSum float64
		for _, s := range ix.sigOf {
			priorSum += post[s]
		}
		prior := mapClassPrior(priorSum, len(ix.sigOf), alpha, beta)
		for k := range logConf {
			var yes, no float64
			for _, s := range ix.codeSigs[ix.codeStart[k]:ix.codeStart[k+1]] {
				yes += post[s]
				no += 1 - post[s]
			}
			counts[k>>1][1][k&1], counts[k>>1][0][k&1] = yes, no
		}
		rows(counts, conf)

		for k := range logConf {
			logConf[k] = [2]float64{math.Log(conf[k>>1][0][k&1]), math.Log(conf[k>>1][1][k&1])}
		}
		logPrior1, logPrior0 := math.Log(prior), math.Log(1-prior)
		maxDelta := 0.0
		for s := range post {
			logP1, logP0 := logPrior1, logPrior0
			for _, k := range ix.sigCodes[ix.sigStart[s]:ix.sigStart[s+1]] {
				logP1 += logConf[k][1]
				logP0 += logConf[k][0]
			}
			// p1/(p1+p0) with p = exp(logP − max): the larger term's p is
			// exp(0) = 1 exactly, so only the other needs math.Exp.
			var newPost float64
			if logP0 > logP1 {
				p1 := math.Exp(logP1 - logP0)
				newPost = p1 / (p1 + 1)
			} else {
				newPost = 1 / (1 + math.Exp(logP0-logP1))
			}
			if d := math.Abs(newPost - post[s]); d > maxDelta {
				maxDelta = d
			}
			post[s] = newPost
		}
		if maxDelta < tol {
			break
		}
	}
}

// DawidSkene runs the EM algorithm: it alternates estimating each pair's
// match posterior given worker confusion matrices (E-step) with
// re-estimating worker confusion matrices and the class prior given the
// posteriors (M-step), initialized from majority vote.
func DawidSkene(answers []Answer, opts DawidSkeneOptions) Posterior {
	ix := indexAnswers(answers)
	ix.dawidSkene(opts)
	return ix.posterior()
}

// dawidSkene is DawidSkene's EM on the built index.
func (ix *answerIndex) dawidSkene(opts DawidSkeneOptions) {
	opts.defaults()
	if len(ix.pairs) == 0 {
		return
	}

	// Confusion rows are the additively smoothed expected counts.
	s := opts.Smoothing
	ix.em(opts.MaxIterations, opts.Tolerance, opts.PriorAlpha, opts.PriorBeta, func(counts, conf []confusion) {
		for w := range conf {
			for c := 0; c < 2; c++ {
				den := counts[w][c][0] + counts[w][c][1] + 2*s
				for l := 0; l < 2; l++ {
					conf[w][c][l] = (counts[w][c][l] + s) / den
				}
			}
		}
	})
}
