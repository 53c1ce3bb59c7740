package aggregate

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
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
	maps.Copy(inputs, emEdgeInputs())

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

// hitAnswers draws nHITs HITs, every pair of a HIT answered by the same
// three workers out of a pool of nWorkers (worker IDs drawn sparse and
// out of order), in the order the crowd returns them: HIT by HIT, each
// worker's whole HIT at once, so a pair's votes are not adjacent. A pair
// HIT holds k disjoint pairs, each judged on its own; a cluster HIT holds
// every pair over k records, and a worker answers by whether their own
// (noisy) entity labelling puts the two records together, so their
// answers are transitively closed. One worker in four is a spammer.
func hitAnswers(rng *rand.Rand, nHITs, k, nWorkers int, cluster bool) []Answer {
	pool := rng.Perm(4 * nWorkers)[:nWorkers]
	var answers []Answer
	next := 0
	for h := 0; h < nHITs; h++ {
		if cluster {
			entity := make([]int, k)
			for i := range entity {
				entity[i] = rng.Intn(k/2 + 1)
			}
			for _, w := range rng.Perm(nWorkers)[:3] {
				labels := slices.Clone(entity)
				for i := range labels {
					if w%4 == 0 || rng.Float64() < 0.1 {
						labels[i] = rng.Intn(k/2 + 1)
					}
				}
				for i := 0; i < k; i++ {
					for j := i + 1; j < k; j++ {
						answers = append(answers, Answer{Pair: mk(next+i, next+j), Worker: pool[w], Match: labels[i] == labels[j]})
					}
				}
			}
			next += k
			continue
		}
		var pairs []record.Pair
		var truth []bool
		for i := 0; i < k; i++ {
			pairs = append(pairs, mk(next, next+1))
			truth = append(truth, rng.Intn(3) == 0)
			next += 2
		}
		for _, w := range rng.Perm(nWorkers)[:3] {
			for i, p := range pairs {
				ans := truth[i]
				if w%4 == 0 {
					ans = rng.Intn(2) == 0
				} else if rng.Float64() < 0.15 {
					ans = !ans
				}
				answers = append(answers, Answer{Pair: p, Worker: pool[w], Match: ans})
			}
		}
	}
	return answers
}

// emEdgeInputs are the answer sets that exercise signature collapse, each
// as the crowd returned it, shuffled, and in canonical order:
//   - pair and cluster HITs, whose pairs share three workers;
//   - a worker answering one pair twice, once with the same label and
//     once with the opposite one;
//   - pairs whose votes are the same multiset in different orders, which
//     are distinct signatures: their log sums add in different orders.
func emEdgeInputs() map[string][]Answer {
	rng := rand.New(rand.NewSource(38))
	sets := map[string][]Answer{
		"pair HITs":    hitAnswers(rng, 12, 10, 9, false),
		"cluster HITs": hitAnswers(rng, 8, 6, 7, true),
	}

	dup := hitAnswers(rng, 6, 8, 6, false)
	for i, n := 0, len(dup); i < n; i += 5 {
		a := dup[i]
		dup = append(dup, a)
		a.Match = !a.Match
		dup = append(dup, a)
	}
	sets["repeated votes"] = dup

	order := hitAnswers(rng, 4, 8, 5, false)
	votes := []Answer{{Worker: 101, Match: true}, {Worker: 202}, {Worker: 303, Match: true}, {Worker: 404}}
	for i := 0; i < 24; i++ {
		p := mk(10_000+2*i, 10_001+2*i)
		for _, j := range rng.Perm(len(votes))[:3+i%2] {
			order = append(order, Answer{Pair: p, Worker: votes[j].Worker, Match: votes[j].Match})
		}
	}
	sets["vote order"] = order

	out := map[string][]Answer{}
	for name, a := range sets {
		out[name] = a
		shuffled := slices.Clone(a)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		out[name+" shuffled"] = shuffled
		canonical := slices.Clone(a)
		SortCanonical(canonical)
		out[name+" canonical"] = canonical
	}
	return out
}

// A HIT's pairs answered "no" by the same three workers share one
// signature: EM tracks one posterior for all ten.
func TestIndexAnswersCollapsesHIT(t *testing.T) {
	var answers []Answer
	for _, w := range []int{31, 7, 19} {
		for i := 0; i < 10; i++ {
			answers = append(answers, Answer{Pair: mk(2*i, 2*i+1), Worker: w})
		}
	}
	ix := indexAnswers(answers)
	if len(ix.pairs) != 10 || len(ix.post) != 1 {
		t.Fatalf("%d pairs in %d signatures; want 10 in 1", len(ix.pairs), len(ix.post))
	}
	if want := []int32{0, 2, 4}; !slices.Equal(ix.sigCodes, want) {
		t.Errorf("signature codes %v; want %v (workers by first appearance, label 0)", ix.sigCodes, want)
	}
	if len(ix.codeSigs) != 30 {
		t.Errorf("code-major list holds %d votes; want 30", len(ix.codeSigs))
	}
	post := DawidSkene(answers, DawidSkeneOptions{})
	for p, v := range post {
		if v != post[mk(0, 1)] {
			t.Fatalf("pair %v posterior %v; pair (0,1) %v", p, v, post[mk(0, 1)])
		}
	}
}

// encodeAnswers is FuzzEMBitExact's encoding of an answer set, two bytes
// per answer: the pair's index by first appearance, then worker << 1 |
// match, workers numbered by first appearance. It stops at the 256th pair
// or 128th worker.
func encodeAnswers(answers []Answer) []byte {
	pairs := map[record.Pair]int{}
	workers := map[int]int{}
	var out []byte
	for _, a := range answers {
		p, ok := pairs[a.Pair]
		if !ok {
			p = len(pairs)
			pairs[a.Pair] = p
		}
		w, ok := workers[a.Worker]
		if !ok {
			w = len(workers)
			workers[a.Worker] = w
		}
		if p > 255 || w > 127 {
			break
		}
		b := byte(w << 1)
		if a.Match {
			b |= 1
		}
		out = append(out, byte(p), b)
	}
	return out
}

// FuzzEMBitExact decodes an answer set (byte 0 picks the options, the
// rest is encodeAnswers' encoding) and requires DawidSkene and
// DawidSkeneMAP to reproduce the reference loop to the last bit of every
// posterior. Each set also runs in canonical order (pairs numbered by
// run), shuffled, and with its worker IDs moved below zero, to 1<<20 and
// above, and half of them below zero (the map fallbacks beside the dense
// worker table); and each of those runs twice through the default
// aggregators, whose index is reused across calls and inputs. The seed
// corpus is emEdgeInputs.
func FuzzEMBitExact(f *testing.F) {
	inputs := emEdgeInputs()
	for i, name := range slices.Sorted(maps.Keys(inputs)) {
		f.Add(append([]byte{byte(i)}, encodeAnswers(inputs[name])...))
	}
	ds, _ := New(MethodDawidSkene)
	mp, _ := New(MethodDawidSkeneMAP)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		var answers []Answer
		for i := 1; i+1 < len(data); i += 2 {
			answers = append(answers, Answer{Pair: mk(2*int(data[i]), 2*int(data[i])+1), Worker: int(data[i+1] >> 1), Match: data[i+1]&1 == 1})
		}
		dsOpts := []DawidSkeneOptions{{}, {MaxIterations: 3}, {Smoothing: 0.5, PriorAlpha: 2, PriorBeta: 3}}
		mapOpts := []MAPOptions{{}, {MaxIterations: 2}, {Anchor: -1}, {ConfAlpha: 9, ConfBeta: 2, Anchor: 3}}
		check := func(method string, got, want Posterior) {
			if len(got) != len(want) {
				t.Fatalf("%s: %d posteriors; reference %d", method, len(got), len(want))
			}
			for p, w := range want {
				if g, ok := got[p]; !ok || math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%s: pair %v posterior %v; reference %v", method, p, got[p], w)
				}
			}
		}
		remap := func(f func(int) int) []Answer {
			out := slices.Clone(answers)
			for i := range out {
				out[i].Worker = f(out[i].Worker)
			}
			return out
		}
		canonical, shuffled := slices.Clone(answers), slices.Clone(answers)
		SortCanonical(canonical)
		rand.New(rand.NewSource(int64(len(data)))).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		variants := map[string][]Answer{
			"as given":  answers,
			"canonical": canonical,
			"shuffled":  shuffled,
			"negative":  remap(func(w int) int { return -1 - w }),
			"large":     remap(func(w int) int { return 1<<20 + w }),
			"mixed": remap(func(w int) int {
				if w%2 == 1 {
					return -w
				}
				return w
			}),
		}
		dsOpt, mpOpt := dsOpts[int(data[0])%len(dsOpts)], mapOpts[int(data[0])%len(mapOpts)]
		for name, in := range variants {
			check(name+" DawidSkene", DawidSkene(in, dsOpt), refDawidSkene(in, dsOpt))
			check(name+" DawidSkeneMAP", DawidSkeneMAP(in, mpOpt), refDawidSkeneMAP(in, mpOpt))
			wantDS, wantMAP := refDawidSkene(in, DawidSkeneOptions{}), refDawidSkeneMAP(in, MAPOptions{})
			for run := 0; run < 2; run++ {
				check(fmt.Sprintf("%s reused DawidSkene, run %d", name, run), ds.Aggregate(in), wantDS)
				check(fmt.Sprintf("%s reused DawidSkeneMAP, run %d", name, run), mp.Aggregate(in), wantMAP)
				dense := mp.Dense(in)
				if len(dense) != len(wantMAP) {
					t.Fatalf("%s reused Dense, run %d: %d posteriors; reference %d", name, run, len(dense), len(wantMAP))
				}
				seen := map[record.Pair]bool{}
				for _, a := range in {
					if !seen[a.Pair] {
						if g, w := dense[len(seen)], wantMAP[a.Pair]; math.Float64bits(g) != math.Float64bits(w) {
							t.Fatalf("%s reused Dense, run %d: pair %v posterior %v; reference %v", name, run, a.Pair, g, w)
						}
						seen[a.Pair] = true
					}
				}
			}
		}
	})
}
