package crowder

import (
	"math"
	"math/rand"
	"testing"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/transitivity"
	"github.com/crowder/crowder/internal/verdicts"
)

// putMachine, putDeduced and addPartial apply one verdict, or one
// fragment, as a window.
func putMachine(c *verdicts.Cache, p record.Pair, likelihood, posterior float64) {
	c.Apply(verdicts.Window{Machine: []verdicts.MachineVerdict{{Pair: p, Likelihood: likelihood, Posterior: posterior}}})
}

func putDeduced(c *verdicts.Cache, likelihood float64, d transitivity.Deduction) {
	c.Apply(verdicts.Window{Deduced: []verdicts.DeducedVerdict{{Likelihood: likelihood, Proof: d}}})
}

func addPartial(c *verdicts.Cache, answers []aggregate.Answer) {
	c.Apply(verdicts.Window{Partial: answers})
}

// answerIndex names, for each answer of a round, its pair's index in
// the asked window, or −1: the cache then finds the pair itself. Every
// index it names is right, and when a HIT's answers are its own pairs,
// pair-major or assignment-major, it names every one — an answer for a
// pair outside its HIT may cost the next answer its index, never its
// entry. A run without spans (an empty run) names none.
func TestAnswerIndexNamesEachAnswersPair(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		slots := 1 + rng.Intn(40)
		at := make([]int32, slots)
		var asked []record.Pair
		var askedSlots []int32
		for s := range slots {
			at[s] = -1
			if rng.Intn(5) > 0 {
				at[s] = int32(len(asked))
				asked, askedSlots = append(asked, record.MakePair(record.ID(s), record.ID(s+100))), append(askedSlots, int32(s))
			}
		}
		var batch hitBatch
		run := &crowd.Result{Spans: []int{0}}
		extras := rng.Intn(3) == 0
		for range 1 + rng.Intn(6) {
			var ps []record.Pair
			var ss []int32
			for _, s := range askedSlots {
				if rng.Intn(3) == 0 {
					ps, ss = append(ps, asked[at[s]]), append(ss, s)
				}
			}
			batch.pairs, batch.slots = append(batch.pairs, ps), append(batch.slots, ss)
			if rng.Intn(5) > 0 { // else retracted: an empty span
				reps, pairMajor := 1+rng.Intn(4), rng.Intn(2) == 0
				for k := range reps * len(ps) {
					p := ps[k%len(ps)]
					if pairMajor {
						p = ps[k/reps]
					}
					run.Answers = append(run.Answers, aggregate.Answer{Pair: p, Worker: k})
					if extras && rng.Intn(4) == 0 {
						run.Answers = append(run.Answers, aggregate.Answer{Pair: record.MakePair(1000, record.ID(k))})
					}
				}
			}
			run.Spans = append(run.Spans, len(run.Answers))
		}

		got := answerIndex(batch, run, at)
		if len(got) != len(run.Answers) {
			t.Fatalf("seed %d: %d indices for %d answers", seed, len(got), len(run.Answers))
		}
		for i, k := range got {
			if k >= 0 && asked[k] != run.Answers[i].Pair {
				t.Fatalf("seed %d: answer %d of %v is indexed to %v", seed, i, run.Answers[i].Pair, asked[k])
			}
			if k < 0 && !extras {
				t.Fatalf("seed %d: answer %d of its HIT's own pair %v has no index", seed, i, run.Answers[i].Pair)
			}
		}
		run.Spans = nil
		if got := answerIndex(batch, run, at); got != nil {
			t.Fatalf("seed %d: a run without spans is indexed %v", seed, got)
		}
	}
}

// rankedMatches ranks the judged entries — asked with answers, machine —
// as aggregate.Posterior.Ranked ranks their posteriors: ties, zeros and
// ones by the radix path, and negative zero, negatives and NaN by the
// comparison fallback. Asked entries without answers are not ranked.
func TestRankedMatchesEqualsPosteriorRanked(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cache := verdicts.NewCache()
		values := []float64{0, 1, 0.5, rng.Float64(), rng.Float64()}
		if seed%4 == 0 {
			values = append(values, math.Copysign(0, -1), -0.25, math.NaN())
		}
		for i := 0; i < rng.Intn(200); i++ {
			p := record.MakePair(record.ID(rng.Intn(40)), record.ID(40+rng.Intn(40)))
			v := values[rng.Intn(len(values))]
			switch rng.Intn(3) {
			case 0:
				putMachine(cache, p, 0, v)
			case 1:
				cache.Put(p, 0)
			default:
				e := cache.Put(p, 0)
				e.Answers = append(e.Answers, aggregate.Answer{Pair: p, Match: true})
				e.Posterior = v
			}
		}
		want := aggregate.Posterior{}
		for e := range cache.Entries() {
			if len(e.Answers) > 0 || e.Provenance != verdicts.Asked {
				want[e.Pair] = e.Posterior
			}
		}
		got := rankedMatches(cache)
		for i, p := range want.Ranked() {
			if g := got[i]; g.Pair != (Pair{A: int(p.A), B: int(p.B)}) || math.Float64bits(g.Confidence) != math.Float64bits(want[p]) {
				t.Fatalf("seed %d: rank %d is %+v; Posterior.Ranked has %v at %v", seed, i, g, p, want[p])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d ranked; want %d", seed, len(got), len(want))
		}
	}
}
