package aggregate

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/crowder/crowder/internal/record"
)

// refEM is the reference EM loop: votes grouped per pair through maps,
// per-iteration count buffers, and two math.Log calls per vote per
// iteration. rows fills the confusion rows from the expected counts.
func refEM(answers []Answer, maxIter int, tol, alpha, beta float64, rows func(counts, conf [][2][2]float64)) Posterior {
	type refVote struct {
		w   int
		yes bool
	}
	pairIdx := make(map[record.Pair]int)
	var pairs []record.Pair
	workerIdx := make(map[int]int)
	for _, a := range answers {
		if _, ok := pairIdx[a.Pair]; !ok {
			pairIdx[a.Pair] = len(pairs)
			pairs = append(pairs, a.Pair)
		}
		if _, ok := workerIdx[a.Worker]; !ok {
			workerIdx[a.Worker] = len(workerIdx)
		}
	}
	byPair := make([][]refVote, len(pairs))
	for _, a := range answers {
		i := pairIdx[a.Pair]
		byPair[i] = append(byPair[i], refVote{w: workerIdx[a.Worker], yes: a.Match})
	}
	post := make([]float64, len(pairs))
	for i, vs := range byPair {
		yes := 0
		for _, v := range vs {
			if v.yes {
				yes++
			}
		}
		post[i] = float64(yes) / float64(len(vs))
	}
	cls := func(v refVote) int {
		if v.yes {
			return 1
		}
		return 0
	}

	conf := make([][2][2]float64, len(workerIdx))
	for iter := 0; iter < maxIter; iter++ {
		var priorSum float64
		for i := range post {
			priorSum += post[i]
		}
		prior := mapClassPrior(priorSum, len(pairs), alpha, beta)
		counts := make([][2][2]float64, len(workerIdx))
		for i, vs := range byPair {
			for _, v := range vs {
				counts[v.w][1][cls(v)] += post[i]
				counts[v.w][0][cls(v)] += 1 - post[i]
			}
		}
		rows(counts, conf)
		maxDelta := 0.0
		for i, vs := range byPair {
			logP1 := math.Log(prior)
			logP0 := math.Log(1 - prior)
			for _, v := range vs {
				logP1 += math.Log(conf[v.w][1][cls(v)])
				logP0 += math.Log(conf[v.w][0][cls(v)])
			}
			m := logP1
			if logP0 > m {
				m = logP0
			}
			p1 := math.Exp(logP1 - m)
			p0 := math.Exp(logP0 - m)
			newPost := p1 / (p1 + p0)
			if d := math.Abs(newPost - post[i]); d > maxDelta {
				maxDelta = d
			}
			post[i] = newPost
		}
		if maxDelta < tol {
			break
		}
	}
	out := make(Posterior, len(pairs))
	for i, p := range pairs {
		out[p] = post[i]
	}
	return out
}

// refDawidSkene is plain Dawid–Skene on the reference loop.
func refDawidSkene(answers []Answer, o DawidSkeneOptions) Posterior {
	o.defaults()
	return refEM(answers, o.MaxIterations, o.Tolerance, o.PriorAlpha, o.PriorBeta, func(counts, conf [][2][2]float64) {
		for w := range conf {
			for c := 0; c < 2; c++ {
				den := counts[w][c][0] + counts[w][c][1] + 2*o.Smoothing
				for l := 0; l < 2; l++ {
					conf[w][c][l] = (counts[w][c][l] + o.Smoothing) / den
				}
			}
		}
	})
}

// refDawidSkeneMAP is the MAP estimator on the reference loop.
func refDawidSkeneMAP(answers []Answer, o MAPOptions) Posterior {
	o.defaults()
	prior := func(l, c int) float64 {
		if l == c {
			return o.ConfAlpha
		}
		return o.ConfBeta
	}
	return refEM(answers, o.MaxIterations, o.Tolerance, o.PriorAlpha, o.PriorBeta, func(counts, conf [][2][2]float64) {
		var pool [2][2]float64
		for c := 0; c < 2; c++ {
			var tot [2]float64
			for w := range counts {
				tot[0] += counts[w][c][0]
				tot[1] += counts[w][c][1]
			}
			den := tot[0] + tot[1] + o.ConfAlpha + o.ConfBeta
			for l := 0; l < 2; l++ {
				pool[c][l] = (tot[l] + prior(l, c)) / den
			}
		}
		for w := range conf {
			anchored := o.Anchor > 0 && !(counts[w][0][0]+counts[w][0][1] >= coverageUnit &&
				counts[w][1][0]+counts[w][1][1] >= coverageUnit)
			for c := 0; c < 2; c++ {
				den := counts[w][c][0] + counts[w][c][1] + o.ConfAlpha + o.ConfBeta
				for l := 0; l < 2; l++ {
					num := counts[w][c][l] + prior(l, c)
					d := den
					if anchored {
						num += o.Anchor * pool[c][l]
						d += o.Anchor
					}
					conf[w][c][l] = num / d
				}
			}
		}
	})
}

// randomAnswers draws a seeded answer set mixing sparse workers (a few
// answers each), single-class workers (who only ever see matches or only
// non-matches) and spammers, in shuffled order.
func randomAnswers(rng *rand.Rand) []Answer {
	nPairs := 1 + rng.Intn(80)
	nWorkers := 1 + rng.Intn(25)
	var answers []Answer
	for i := 0; i < nPairs; i++ {
		p := mk(2*i, 2*i+1)
		truth := rng.Intn(3) == 0
		for r := 1 + rng.Intn(5); r > 0; r-- {
			w := rng.Intn(nWorkers)
			ans := truth
			switch {
			case w%4 == 0: // spammer
				ans = rng.Intn(2) == 0
			case w%4 == 1: // single-class: always answers "no"
				ans = false
			case rng.Float64() < 0.15:
				ans = !ans
			}
			answers = append(answers, Answer{Pair: p, Worker: w, Match: ans})
		}
	}
	rng.Shuffle(len(answers), func(i, j int) { answers[i], answers[j] = answers[j], answers[i] })
	return answers
}

// The shared log-table E-step is bit-exact: DawidSkene and DawidSkeneMAP
// reproduce the reference per-vote-log loop to the last bit of every
// posterior, on seeded random answer sets, the sparse-cohort inputs and
// the noisy-crowd inputs, under default and non-default options.
func TestSharedEMStepBitExact(t *testing.T) {
	inputs := map[string][]Answer{}
	for seed := int64(0); seed < 30; seed++ {
		inputs[fmt.Sprintf("random seed %d", seed)] = randomAnswers(rand.New(rand.NewSource(seed)))
	}
	for _, c := range [][3]int{{7, 1, 1}, {25, 5, 2}, {3, 2, 2}, {0, 4, 3}} {
		a, _, _ := sparseCohorts(c[0], c[1], c[2])
		inputs[fmt.Sprintf("sparseCohorts%v", c)] = a
	}
	noisy, _ := buildNoisyAnswers(3, 90, 5, 3, 0.8)
	inputs["noisy"] = noisy

	dsOpts := []DawidSkeneOptions{{}, {MaxIterations: 3}, {Smoothing: 0.5, PriorAlpha: 2, PriorBeta: 3}}
	mapOpts := []MAPOptions{{}, {MaxIterations: 2}, {Anchor: -1}, {ConfAlpha: 9, ConfBeta: 2, Anchor: 3}}
	same := func(label string, got, want Posterior) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d posteriors; reference %d", label, len(got), len(want))
		}
		for p, w := range want {
			if g, ok := got[p]; !ok || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("%s: pair %v posterior %v (%#x); reference %v (%#x)", label, p, g, math.Float64bits(g), w, math.Float64bits(w))
			}
		}
	}
	for name, answers := range inputs {
		for i, o := range dsOpts {
			same(fmt.Sprintf("%s DawidSkene opts %d", name, i), DawidSkene(answers, o), refDawidSkene(answers, o))
		}
		for i, o := range mapOpts {
			same(fmt.Sprintf("%s DawidSkeneMAP opts %d", name, i), DawidSkeneMAP(answers, o), refDawidSkeneMAP(answers, o))
		}
	}
}
