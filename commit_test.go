package crowder

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/simjoin"
	"github.com/crowder/crowder/internal/transitivity"
	"github.com/crowder/crowder/internal/verdicts"
)

// slotCase is one random execute commit: a cache with history, a window,
// which of its pairs the round asked, the HITs batched over it and the
// round's answers laid out as the lifecycle manager assembles them.
type slotCase struct {
	window []simjoin.ScoredPair
	asked  []bool
	batch  hitBatch
	run    *crowd.Result
	n      int
}

// newSlotCase draws a commit and returns it with a builder of the cache
// it starts from, so the slot path and the per-pair path each get their
// own copy. The history holds asked entries with answers, deduced and
// machine entries for window pairs (upgraded by the commit) and partial
// fragments on window and other pairs (shed when answers arrive).
func newSlotCase(seed int64) (slotCase, func() *verdicts.Cache) {
	rng := rand.New(rand.NewSource(seed))
	records := 4 + rng.Intn(30)
	seen := record.NewPairSet()
	pair := func() record.Pair {
		for {
			a, b := rng.Intn(records), rng.Intn(records)
			if a != b && !seen.Has(record.ID(a), record.ID(b)) {
				seen.Add(record.ID(a), record.ID(b))
				return record.MakePair(record.ID(a), record.ID(b))
			}
		}
	}
	answer := func(p record.Pair) aggregate.Answer {
		return aggregate.Answer{Pair: p, Worker: rng.Intn(12), Match: rng.Intn(2) == 0}
	}
	var c slotCase
	c.n = 1 + rng.Intn(4)
	for i := 0; i < 1+rng.Intn(min(40, records*(records-1)/4)); i++ {
		c.window = append(c.window, simjoin.ScoredPair{Pair: pair(), Likelihood: float64(rng.Intn(5)) / 4})
		c.asked = append(c.asked, rng.Intn(5) > 0)
	}
	var outside []record.Pair
	for i := 0; i < rng.Intn(8) && len(seen) < records*(records-1)/2-1; i++ {
		outside = append(outside, pair())
	}

	// History, replayed identically by every builder.
	hist := rng.Int63()
	build := func() *verdicts.Cache {
		r := rand.New(rand.NewSource(hist))
		cache := verdicts.NewCache()
		for _, p := range outside {
			if r.Intn(2) == 0 {
				cache.Put(p, r.Float64())
				cache.AddAnswers([]aggregate.Answer{{Pair: p, Worker: r.Intn(12), Match: true}})
			} else {
				cache.AddPartialAnswers([]aggregate.Answer{{Pair: p, Worker: r.Intn(12)}})
			}
		}
		for _, sp := range c.window {
			switch r.Intn(5) {
			case 0:
				cache.PutDeduced(sp.Likelihood/2, transitivity.Deduction{Pair: sp.Pair, Match: true, Path: outside[:min(len(outside), 2)]})
			case 1:
				cache.PutMachine(sp.Pair, 0, 0.9)
			case 2:
				cache.AddPartialAnswers([]aggregate.Answer{{Pair: sp.Pair, Worker: r.Intn(12)}, {Pair: sp.Pair, Worker: r.Intn(12), Match: true}})
			}
		}
		return cache
	}

	// HITs over the asked slots: some pairs in two HITs, some HITs
	// retracted (an empty span), answers pair-major or assignment-major,
	// and now and then an answer for a pair outside the HIT.
	var askedSlots []int32
	for i, a := range c.asked {
		if a {
			askedSlots = append(askedSlots, int32(i))
		}
	}
	c.run = &crowd.Result{Spans: []int{0}}
	for h := 0; h < 1+rng.Intn(6); h++ {
		var ps []record.Pair
		var slots []int32
		for _, s := range askedSlots {
			if rng.Intn(3) == 0 {
				ps, slots = append(ps, c.window[s].Pair), append(slots, s)
			}
		}
		c.batch.pairs, c.batch.slots = append(c.batch.pairs, ps), append(c.batch.slots, slots)
		if rng.Intn(5) > 0 {
			if rng.Intn(2) == 0 {
				for _, p := range ps {
					for r := 0; r < c.n; r++ {
						c.run.Answers = append(c.run.Answers, answer(p))
					}
				}
			} else {
				for r := 0; r < c.n; r++ {
					for _, p := range ps {
						c.run.Answers = append(c.run.Answers, answer(p))
					}
				}
			}
			if rng.Intn(4) == 0 {
				p := c.window[rng.Intn(len(c.window))].Pair
				if len(outside) > 0 && rng.Intn(2) == 0 {
					p = outside[rng.Intn(len(outside))]
				}
				c.run.Answers = append(c.run.Answers, answer(p))
			}
		}
		c.run.Spans = append(c.run.Spans, len(c.run.Answers))
	}
	return c, build
}

// The slot commit equals per-pair Put + Reserve, then AddAnswers: every
// entry's answers (order included), provenance, likelihood, posterior
// and proof, the canonical order, and the partial fragments left.
func TestPutWindowMatchesPerPair(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		c, build := newSlotCase(seed)
		got, want := build(), build()
		putWindow(got, c.window, c.asked, c.batch, c.run, c.n)
		for i, sp := range c.window {
			if c.asked[i] {
				want.Put(sp.Pair, sp.Likelihood).Reserve(c.n)
			}
		}
		want.AddAnswers(c.run.Answers)

		ge, gp := got.Dump()
		we, wp := want.Dump()
		if !reflect.DeepEqual(ge, we) || !reflect.DeepEqual(gp, wp) {
			t.Fatalf("seed %d: slot commit\n%+v\n%+v\nper-pair\n%+v\n%+v", seed, ge, gp, we, wp)
		}
		if !reflect.DeepEqual(got.Pairs(), want.Pairs()) || got.PartialLen() != want.PartialLen() {
			t.Fatalf("seed %d: canonical order or partial count differs", seed)
		}
		var walked []record.Pair
		for e := range got.Entries() {
			if got.Get(e.Pair) != e {
				t.Fatalf("seed %d: the walk yields an entry the map does not hold", seed)
			}
			walked = append(walked, e.Pair)
		}
		if !reflect.DeepEqual(walked, want.Pairs()) {
			t.Fatalf("seed %d: Entries walks %v; want %v", seed, walked, want.Pairs())
		}
	}
}

// Without spans — an empty run — the commit falls back to AddAnswers.
func TestPutWindowWithoutSpans(t *testing.T) {
	c, build := newSlotCase(7)
	got, want := build(), build()
	c.run.Spans = nil
	putWindow(got, c.window, c.asked, c.batch, c.run, c.n)
	for i, sp := range c.window {
		if c.asked[i] {
			want.Put(sp.Pair, sp.Likelihood).Reserve(c.n)
		}
	}
	want.AddAnswers(c.run.Answers)
	ge, _ := got.Dump()
	we, _ := want.Dump()
	if !reflect.DeepEqual(ge, we) {
		t.Fatal("the span-less commit differs from per-pair AddAnswers")
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
				cache.PutMachine(p, 0, v)
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
