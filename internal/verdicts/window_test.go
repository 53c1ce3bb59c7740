package verdicts

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/simjoin"
	"github.com/crowder/crowder/internal/transitivity"
)

// applyPerPair is Apply spelled out one verdict at a time: Put and the
// reservation of each asked pair, then per-answer lookups, and the
// per-item machine, deduced and partial mutations.
func applyPerPair(c *Cache, w Window) {
	if w.Asked != nil {
		for _, sp := range w.Asked.Pairs {
			if e := c.Put(sp.Pair, sp.Likelihood); e.Answers == nil && w.Asked.Reserve > 0 {
				e.Answers = make([]aggregate.Answer, 0, w.Asked.Reserve)
			}
		}
		refAddAnswers(c, w.Asked.Answers)
	}
	for _, v := range w.Machine {
		c.putMachine(v.Pair, v.Likelihood, v.Posterior)
	}
	for _, v := range w.Deduced {
		c.putDeduced(v.Likelihood, v.Proof)
	}
	c.addPartialAnswers(w.Partial)
}

// randomWindows draws a commit over randomHistory's 12 × 12 pairs, so
// its windows repeat pairs, upgrade machine and deduced entries to
// asked and machine entries to deduced, and answer fragments' pairs.
// Asked windows answer their own pairs, pair-major or assignment-major,
// and now and then a pair outside the window; some carry no At (a run
// without spans), some no answers, some no pairs.
func randomWindows(rng *rand.Rand) []Window {
	pair := func() record.Pair { return mk(rng.Intn(12), 12+rng.Intn(12)) }
	answer := func(p record.Pair) aggregate.Answer {
		return aggregate.Answer{Pair: p, Worker: rng.Intn(5) - 1, Match: rng.Intn(2) == 0}
	}
	var ws []Window
	for range 1 + rng.Intn(6) {
		switch rng.Intn(5) {
		case 0, 1:
			w := &AskedWindow{Reserve: rng.Intn(4)}
			for range rng.Intn(8) {
				w.Pairs = append(w.Pairs, simjoin.ScoredPair{Pair: pair(), Likelihood: float64(rng.Intn(3)) / 2})
			}
			reps := rng.Intn(4)
			for r := range reps * len(w.Pairs) {
				k := r % len(w.Pairs) // assignment-major
				if rng.Intn(2) == 0 {
					k = r / reps // pair-major
				}
				w.Answers, w.At = append(w.Answers, answer(w.Pairs[k].Pair)), append(w.At, int32(k))
				if rng.Intn(6) == 0 {
					w.Answers, w.At = append(w.Answers, answer(pair())), append(w.At, -1)
				}
			}
			for range rng.Intn(3) {
				w.Answers, w.At = append(w.Answers, answer(pair())), append(w.At, -1)
			}
			if rng.Intn(4) == 0 {
				w.At = nil
			}
			ws = append(ws, Window{Asked: w})
		case 2:
			var w Window
			for range rng.Intn(6) {
				w.Machine = append(w.Machine, MachineVerdict{Pair: pair(), Likelihood: rng.Float64(), Posterior: rng.Float64()})
			}
			ws = append(ws, w)
		case 3:
			var w Window
			for range rng.Intn(6) {
				d := transitivity.Deduction{Pair: pair(), Match: rng.Intn(2) == 0, Path: []record.Pair{pair()}}
				if !d.Match {
					d.Negative, d.Witness = true, pair()
				}
				w.Deduced = append(w.Deduced, DeducedVerdict{Likelihood: rng.Float64(), Proof: d})
			}
			ws = append(ws, w)
		default:
			var w Window
			for range rng.Intn(5) {
				w.Partial = append(w.Partial, answer(pair()))
			}
			ws = append(ws, w)
		}
	}
	return ws
}

// Apply equals its per-pair definition on any history and window
// sequence: every entry's answers (order included), provenance,
// likelihood, posterior and proof, the canonical order, the walk and
// the fragments left. The windows' JSON, decoded and applied to the
// same history, gives the same cache: replay is the live commit.
func FuzzApplyMatchesPerPair(f *testing.F) {
	for seed := range int64(16) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		for k := range int64(25) {
			rng := rand.New(rand.NewSource(seed*25 + k))
			hist := rng.Int63()
			build := func() *Cache { return randomHistory(rand.New(rand.NewSource(hist))) }
			ws := randomWindows(rng)
			got, want := build(), build()
			for _, w := range ws {
				got.Apply(w)
				applyPerPair(want, w)
			}
			label := fmt.Sprintf("case %d", seed*25+k)
			sameCache(t, label, got, want)

			data, err := json.Marshal(ws)
			if err != nil {
				t.Fatal(err)
			}
			var back []Window
			if err := json.Unmarshal(data, &back); err != nil {
				t.Fatalf("%s: decoding %s: %v", label, data, err)
			}
			replayed := build()
			for _, w := range back {
				replayed.Apply(w)
			}
			sameCache(t, label+" replayed from JSON", replayed, got)
		}
	})
}
