package main

// The traced pass, layer by layer. A workload's traced pass replays its
// own inputs through the modules its end-to-end pass reaches, and only
// those (layerDef.On); every other per-layer metric stays 0:
//
//	replay   the workload's resolve one module at a time — the machine
//	         half (record -> simjoin -> engine) on every workload, then
//	         the crowd half it uses: cluster HITs, simulated crowd and
//	         Dawid–Skene (batch-cluster) or pair HITs, the asynchronous
//	         lifecycle and MAP (session-delta) — each module fed the
//	         previous one's output as the resolver's stages do
//	probes   in-process calls into the layers the replay cannot see
//	         apart, on the replay's candidates, answers and posteriors
//	service  session-delta's HTTP session and crowd-queue's drain, for
//	         the tails and sub-steps of the end-to-end loops
//
// Each timed call is one span; ns-scale calls are timed as one span per
// loop and divided, so the span cost does not drown the call.

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"

	crowder "github.com/crowder/crowder"
	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/engine"
	"github.com/crowder/crowder/internal/graph"
	"github.com/crowder/crowder/internal/hitgen"
	"github.com/crowder/crowder/internal/learn"
	"github.com/crowder/crowder/internal/packing"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/similarity"
	"github.com/crowder/crowder/internal/simjoin"
	"github.com/crowder/crowder/internal/store"
	"github.com/crowder/crowder/internal/transitivity"
	"github.com/crowder/crowder/internal/verdicts"
)

// replay is what one module-by-module replay produced and how long each
// module took.
type replay struct {
	in     *input
	tau    float64
	table  *record.Table
	index  *simjoin.Index
	scored []simjoin.ScoredPair // ranked
	pairs  []record.Pair

	// The crowd half, when the workload has one.
	clusterHITs []hitgen.ClusterHIT
	pairHITs    []hitgen.PairHIT
	answers     []aggregate.Answer // canonical order
	post        aggregate.Posterior
	matches     []crowder.Match

	appendS, tokenizeS, joinS, rankS, generateS, executeS, aggregateS float64
}

// resolveS is the part of the replay a Resolve's stage clocks cover: the
// table is appended before they start.
func (rp *replay) resolveS() float64 {
	return rp.tokenizeS + rp.joinS + rp.rankS + rp.generateS + rp.executeS + rp.aggregateS
}

// machineReplay replays the machine pass over in at tau under parent:
// append, tokenise, join, rank. topK bounds the ranking as
// Options.MaxCandidates does (0 = unbounded).
func machineReplay(r *run, tr *tracer, parent int, in *input, tau float64, topK int) *replay {
	rp := &replay{in: in, tau: tau}
	rp.appendS = tr.do(parent, "record.append", func() { rp.table = in.recordTable(len(in.rows)) })
	tokens := 0
	rp.tokenizeS = tr.do(parent, "record.tokenize", func() {
		for _, ids := range rp.table.TokenIDs() {
			tokens += len(ids)
		}
	})
	var cands []simjoin.ScoredPair
	rp.joinS = tr.do(parent, "simjoin.join", func() {
		rp.index = simjoin.NewIndex(rp.table, simjoin.Options{Threshold: tau})
		for sp := range rp.index.UpdateSeq() {
			cands = append(cands, sp)
		}
	})
	rp.rankS = tr.do(parent, "engine.topk", func() {
		rank := engine.NewTopK(topK, simjoin.CompareScored)
		for _, sp := range cands {
			rank.Push(sp)
		}
		rp.scored = rank.Ranked()
	})
	rp.pairs = simjoin.Pairs(rp.scored)

	// Counts taken at the same boundaries as the times.
	r.set("record.append_rows_per_s", ratio(float64(len(in.rows)), rp.appendS))
	r.set("record.tokenize_s", rp.tokenizeS)
	r.set("record.tokens_per_s", ratio(float64(tokens), rp.tokenizeS))
	r.set("simjoin.join_s", rp.joinS)
	r.set("simjoin.candidates", float64(len(cands)))
	r.set("simjoin.postings_bytes", float64(rp.index.PostingsBytes()))
	r.set("simjoin.postings_entries", float64(rp.index.PostingsEntries()))
	r.set("simjoin.bytes_per_entry", ratio(float64(rp.index.PostingsBytes()), float64(rp.index.PostingsEntries())))
	r.set("engine.topk_push_ns", ratio(rp.rankS*1e9, float64(len(cands))))
	return rp
}

// likelihoods is the difficulty model the resolver's execute stage hands
// the simulated crowd.
func (rp *replay) likelihoods() func(record.Pair) float64 {
	likelihood := make(map[record.Pair]float64, len(rp.scored))
	for _, sp := range rp.scored {
		likelihood[sp.Pair] = sp.Likelihood
	}
	return crowd.DifficultyFromLikelihood(likelihood)
}

// clusterCrowd is batch-cluster's crowd half: two-tiered cluster HITs
// (checked against Definition 1), the simulated crowd exactly as the
// resolver's execute stage configures it, Dawid–Skene.
func (rp *replay) clusterCrowd(r *run, tr *tracer, parent int) error {
	k := r.sz.ClusterSize
	var err error
	rp.generateS = tr.do(parent, "hitgen.twotiered", func() {
		if rp.clusterHITs, err = (hitgen.TwoTiered{}).Generate(rp.pairs, k); err == nil {
			err = hitgen.ValidateCover(rp.pairs, rp.clusterHITs, k)
		}
	})
	if err != nil {
		return fmt.Errorf("two-tiered generation: %w", err)
	}
	var sim *crowd.Result
	rp.executeS = tr.do(parent, "crowd.simulate_cluster", func() {
		sim, err = crowd.RunClusterHITs(rp.clusterHITs, rp.pairs, rp.in.truth, defaultPool(r), crowd.Config{
			Assignments: queueAssignments, Seed: r.seed, Difficulty: rp.likelihoods(),
		})
	})
	if err != nil {
		return fmt.Errorf("simulated crowd: %w", err)
	}
	rp.answers = sim.Answers
	rp.aggregateS = tr.do(parent, "aggregate.dawid_skene", func() {
		aggregate.SortCanonical(rp.answers)
		rp.post = aggregate.DawidSkene(rp.answers, aggregate.DawidSkeneOptions{})
	})
	for _, p := range rp.post.Ranked() {
		rp.matches = append(rp.matches, crowder.Match{Pair: crowder.Pair{A: int(p.A), B: int(p.B)}, Confidence: rp.post[p]})
	}

	hits := float64(len(rp.clusterHITs))
	r.set("hitgen.twotiered_s", rp.generateS)
	r.set("hitgen.hits", hits)
	r.set("hitgen.pairs_per_hit", ratio(float64(len(rp.pairs)), hits))
	r.set("crowd.simulate_cluster_s", rp.executeS)
	r.set("crowd.simulate_assignments_per_s", ratio(queueAssignments*hits, rp.executeS))
	r.set("aggregate.dawid_skene_s", rp.aggregateS)
	r.set("aggregate.answers_per_s", ratio(float64(len(rp.answers)), rp.aggregateS))
	return nil
}

// pairHITsOf batches the candidates into pair HITs of k pairs.
func (rp *replay) pairHITsOf(r *run, tr *tracer, parent, k int) error {
	var err error
	rp.generateS = tr.do(parent, "hitgen.pair_hits", func() { rp.pairHITs, err = hitgen.GeneratePairHITs(rp.pairs, k) })
	r.set("hitgen.pair_hits_s", rp.generateS)
	return err
}

// pairCrowd is session-delta's crowd half over the whole session's
// candidates at once: pair HITs, the asynchronous lifecycle over the
// simulator, Dawid–Skene MAP. The session itself pays it delta by
// delta; the sum over the deltas is crowder.stage_*.
func (rp *replay) pairCrowd(r *run, tr *tracer, parent int) error {
	if err := rp.pairHITsOf(r, tr, parent, r.sz.ClusterSize); err != nil {
		return err
	}
	sim, err := crowd.NewSimulator(rp.in.truth, defaultPool(r), crowd.Config{Assignments: queueAssignments, Seed: r.seed, Difficulty: rp.likelihoods()})
	if err != nil {
		return err
	}
	var res *crowd.Result
	rp.executeS = tr.do(parent, "crowd.lifecycle_execute", func() {
		res, err = crowd.ExecuteHITs(context.Background(), sim, crowd.PairHITsFromGen(pairLists(rp.pairHITs), queueAssignments), crowd.ExecuteOptions{})
	})
	if err != nil {
		return fmt.Errorf("lifecycle over the simulator: %w", err)
	}
	rp.answers = res.Answers
	rp.aggregateS = tr.do(parent, "aggregate.map", func() {
		aggregate.SortCanonical(rp.answers)
		rp.post = aggregate.DawidSkeneMAP(rp.answers, aggregate.MAPOptions{})
	})
	r.set("crowd.lifecycle_execute_s", rp.executeS)
	r.set("aggregate.map_s", rp.aggregateS)
	r.set("aggregate.answers_per_s", ratio(float64(len(rp.answers)), rp.aggregateS))
	return nil
}

// overheadPairs is how many spans-off / spans-on pairs of replays
// bench.trace_overhead_pct is the median of.
const overheadPairs = 3

// tracedReplay measures what recording spans costs, then keeps one
// traced replay. After a discarded warm-up it runs overheadPairs pairs of
// replays, one with spans off and one with spans on, alternating which
// goes first; the overhead is the on-median against the off-median. The
// last replay records into the run's tracer, and its numbers are the
// per-layer metrics.
func tracedReplay(r *run, replayOnce func(tr *tracer) (*replay, error)) (*replay, error) {
	if _, err := replayOnce(newTracer(r.rep.Workload)); err != nil {
		return nil, err
	}
	var (
		rp      *replay
		err     error
		on, off []float64
	)
	for i := 0; i < overheadPairs; i++ {
		for j := 0; j < 2; j++ {
			traced := (i+j)%2 == 1
			tr := newTracer(r.rep.Workload)
			tr.enable(traced)
			if i == overheadPairs-1 && j == 1 {
				r.tr.enable(true)
				tr = r.tr
			}
			if rp, err = replayOnce(tr); err != nil {
				return nil, err
			}
			if wall := rp.appendS + rp.resolveS(); traced {
				on = append(on, wall)
			} else {
				off = append(off, wall)
			}
		}
	}
	r.set("bench.trace_overhead_pct", 100*ratio(median(on)-median(off), median(off)))
	r.samples("bench.trace_overhead_pct", overheadPairs)
	return rp, nil
}

func defaultPool(r *run) *crowd.Population {
	return crowd.NewPopulation(r.seed, crowd.PopulationOptions{Size: 120, SpammerRate: 0.12})
}

// setStages copies a library run's stage timings — only the stages the
// workload has (layerDef.On) — and reports how far the replay's spans
// are from their sum: the gap is reported, not hidden.
func (r *run) setStages(stages map[string]float64, replayS float64) {
	stageS := 0.0
	for _, name := range []string{"prune", "route", "generate", "execute", "aggregate"} {
		metric := "crowder.stage_" + name + "_s"
		if slices.Contains(layerByName[metric].On, r.rep.Workload) {
			r.set(metric, stages[name])
		}
		stageS += stages[name]
	}
	r.setGap(replayS, stageS)
}

// setGap reports how far the time the replayed layers account for is
// from the wall it is held against.
func (r *run) setGap(layersS, wallS float64) {
	r.set("bench.layer_gap_pct", 100*ratio(math.Abs(layersS-wallS), wallS))
	r.detail("layers_s", "s", layersS)
	r.detail("held_against_s", "s", wallS)
}

// perCallNs times fn — a loop of n calls — as one span and records the
// mean nanoseconds per call.
func (r *run) perCallNs(parent int, span, metric string, n float64, fn func()) {
	r.set(metric, ratio(r.tr.do(parent, span, fn)*1e9, n))
}

// sink keeps the compiler from discarding the probe loops' results.
var sink float64

// probeJaccard: the join's verify step over the candidates.
func probeJaccard(r *run, parent int, rp *replay) {
	ids := rp.table.TokenIDs()
	r.perCallNs(parent, "similarity.jaccard", "similarity.jaccard_ns_per_pair", float64(len(rp.pairs)), func() {
		for _, p := range rp.pairs {
			sink += similarity.Jaccard(ids[p.A], ids[p.B])
		}
	})
}

// probeLevenshtein: the per-attribute edit distances the router's
// features are made of.
func probeLevenshtein(r *run, parent int, rp *replay) {
	t := rp.table
	r.perCallNs(parent, "similarity.levenshtein", "similarity.levenshtein_ns_per_pair", float64(len(rp.pairs)*len(t.Schema)), func() {
		for _, p := range rp.pairs {
			a, b := t.Get(p.A), t.Get(p.B)
			for attr := range t.Schema {
				sink += similarity.LevenshteinSim(a.Attr(attr), b.Attr(attr))
			}
		}
	})
}

// probeGraphPacking: what two-tiered generation does inside.
func probeGraphPacking(r *run, parent int, rp *replay) error {
	k := r.sz.ClusterSize
	var comps []graph.Component
	r.set("graph.components_s", r.tr.do(parent, "graph.components", func() {
		comps = graph.FromPairs(rp.pairs).ConnectedComponents()
	}))
	var small []int
	total := 0
	for _, c := range comps {
		if c.Size() <= k {
			small = append(small, c.Size())
			total += c.Size()
		}
	}
	var (
		packed packing.Result
		err    error
	)
	r.set("packing.solve_s", r.tr.do(parent, "packing.solve", func() { packed, err = packing.Solve(small, k) }))
	if err != nil {
		return fmt.Errorf("packing.Solve: %w", err)
	}
	r.set("packing.bins_over_lower_bound", ratio(float64(packed.NumBins()), math.Ceil(float64(total)/float64(k))))
	return nil
}

// probeAggregators runs, on the replay's answers, the aggregators the
// workload's own crowd half did not: all three are reported wherever a
// crowd answers.
func probeAggregators(r *run, parent int, rp *replay, own string) {
	for _, agg := range []struct {
		name string
		run  func()
	}{
		{"dawid_skene", func() { aggregate.DawidSkene(rp.answers, aggregate.DawidSkeneOptions{}) }},
		{"map", func() { aggregate.DawidSkeneMAP(rp.answers, aggregate.MAPOptions{}) }},
		{"majority", func() { aggregate.MajorityVote(rp.answers) }},
	} {
		if agg.name != own {
			r.set("aggregate."+agg.name+"_s", r.tr.do(parent, "aggregate."+agg.name, agg.run))
		}
	}
}

// answersByPair groups the replay's answers for the probes that feed
// them in pair by pair.
func (rp *replay) answersByPair() map[record.Pair][]aggregate.Answer {
	byPair := make(map[record.Pair][]aggregate.Answer, len(rp.pairs))
	for _, a := range rp.answers {
		byPair[a.Pair] = append(byPair[a.Pair], a)
	}
	return byPair
}

// probeVerdicts fills a cache pair by pair to end-of-session size, then
// makes the reads every delta makes of it.
func probeVerdicts(r *run, parent int, rp *replay, byPair map[record.Pair][]aggregate.Answer) {
	npairs := float64(len(rp.pairs))
	cache := verdicts.NewCache()
	r.perCallNs(parent, "verdicts.put", "verdicts.put_ns", npairs, func() {
		for _, sp := range rp.scored {
			cache.Put(sp.Pair, sp.Likelihood)
			cache.AddAnswers(byPair[sp.Pair])
		}
		cache.SetPosteriors(rp.post)
	})
	r.perCallNs(parent, "verdicts.split", "verdicts.split_ns", npairs, func() { cache.Split(rp.pairs) })
	r.set("verdicts.all_answers_ms", 1000*r.tr.do(parent, "verdicts.all_answers", func() { cache.AllAnswers() }))
}

// probeTransitivity observes every verdict, then asks the graph about
// every candidate.
func probeTransitivity(r *run, parent int, rp *replay) {
	npairs := float64(len(rp.pairs))
	g := transitivity.New()
	r.perCallNs(parent, "transitivity.observe", "transitivity.observe_ns", npairs, func() {
		for _, p := range rp.pairs {
			g.Observe(p, rp.post[p] >= 0.5)
		}
	})
	r.perCallNs(parent, "transitivity.deduce", "transitivity.deduce_ns", npairs, func() {
		for _, p := range rp.pairs {
			g.Deduce(p)
		}
	})
}

// probeLearn is the router's retrain and scoring, labelled as the
// resolver labels (the posterior's side of 0.5).
func probeLearn(r *run, parent int, rp *replay) error {
	labels := make([]learn.Label, len(rp.pairs))
	for i, p := range rp.pairs {
		labels[i] = learn.Label{Pair: p, Match: rp.post[p] >= 0.5}
	}
	// Like the resolver, top a match-heavy label set up with pairs the
	// machine pass rejected, so the model always sees both classes.
	for i, n := 0, len(rp.in.rows); i < min(256, n/2); i++ {
		p := record.MakePair(record.ID(i), record.ID(n-1-i))
		if _, judged := rp.post[p]; !judged {
			labels = append(labels, learn.Label{Pair: p, Match: false, Synthetic: true})
		}
	}
	var (
		learner *learn.Learner
		err     error
	)
	r.set("learn.train_ms", 1000*r.tr.do(parent, "learn.train", func() { learner, err = learn.Train(rp.table, labels, learn.Options{Seed: r.seed}) }))
	if err != nil {
		return fmt.Errorf("learn.Train: %w", err)
	}
	// An untrained router (too few labels of one class) scores nothing.
	if learner.Ready() {
		r.perCallNs(parent, "learn.margin", "learn.margin_ns_per_pair", float64(len(rp.pairs)), func() {
			for _, p := range rp.pairs {
				sink += learner.Margin(rp.table, p)
			}
		})
	}
	return nil
}

func pairLists(gen []hitgen.PairHIT) [][]record.Pair {
	out := make([][]record.Pair, len(gen))
	for i, h := range gen {
		out[i] = h.Pairs
	}
	return out
}

// probeDeltaJoin indexes the session's base, then appends each round's
// batch and times its delta probe — what every round pays the join.
func probeDeltaJoin(r *run, parent int, p sessionPlan) {
	bounds := p.boundaries()
	t := p.in.recordTable(bounds[0])
	ix := simjoin.NewIndex(t, simjoin.Options{Threshold: p.tau})
	ix.Update()
	var probeMs []float64
	for _, hi := range bounds[1:] {
		for _, row := range p.in.rows[t.Len():hi] {
			t.Append(row...)
		}
		probeMs = append(probeMs, 1000*r.tr.do(parent, "simjoin.delta_probe", func() { ix.Update() }))
	}
	r.set("simjoin.delta_probe_ms", median(probeMs))
	r.samples("simjoin.delta_probe_ms", len(probeMs))
}

// probeShardedJoin runs the same ranked join through nproc shards and
// through engine.MergeRanked, against the single index — the number the
// ROADMAP's "sharding: prove it or remove it" waits for.
func probeShardedJoin(r *run, parent int, rp *replay) {
	shards, topK := r.clients, r.sz.ScaleTopK
	var ranked []simjoin.ScoredPair
	shardedS := r.tr.do(parent, "simjoin.sharded_join", func() {
		ranked = simjoin.NewSharded(rp.table, shards, simjoin.Options{Threshold: rp.tau}).UpdateRanked(topK)
	})
	want := rp.scored[:min(topK, len(rp.scored))]
	same := len(ranked) == len(want)
	for i := 0; same && i < len(want); i++ {
		same = ranked[i] == want[i]
	}
	r.op(same, "sharded ranked join differs from the single index")
	r.set("simjoin.sharded_join_s", shardedS)
	r.set("simjoin.sharded_speedup", ratio(rp.joinS+rp.rankS, shardedS))
	r.detail("shards", "count", float64(shards))

	lists := make([][]simjoin.ScoredPair, shards)
	for i, sp := range rp.scored {
		lists[i%shards] = append(lists[i%shards], sp)
	}
	r.set("engine.merge_ranked_ms", 1000*r.tr.do(parent, "engine.merge_ranked", func() {
		engine.MergeRanked(topK, simjoin.CompareScored, lists...)
	}))
}

// probeStore logs the replay's verdicts to a fresh store the way the
// resolver commits them — per delta one commit of that delta's verdicts
// and answers, then one of every posterior so far, the O(session) write
// the aggregate stage makes each round — then reopens the directory.
// Each Log includes its fsync; the sandbox's fsync is not a device's.
func probeStore(r *run, parent int, rp *replay, byPair map[record.Pair][]aggregate.Answer) error {
	dir := filepath.Join(r.tmp, "store-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	fl, _, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	const deltas = 30
	per := max(1, (len(rp.scored)+deltas-1)/deltas)
	var commitMs []float64
	var post []store.PairVal
	for lo := 0; lo < len(rp.scored); lo += per {
		chunk := rp.scored[lo:min(lo+per, len(rp.scored))]
		ops := make([]store.Op, 0, len(chunk)+2)
		var answers []aggregate.Answer
		for _, sp := range chunk {
			ops = append(ops, store.Op{Put: &store.PutOp{Pair: sp.Pair, Likelihood: sp.Likelihood}})
			answers = append(answers, byPair[sp.Pair]...)
			post = append(post, store.PairVal{Pair: sp.Pair, Val: rp.post[sp.Pair]})
		}
		ops = append(ops, store.Op{Answers: answers}, store.Op{ClearPending: true})
		for _, ev := range []*store.Commit{{Ops: ops}, {Ops: []store.Op{{Posteriors: post}}}} {
			commitMs = append(commitMs, 1000*r.tr.do(parent, "store.commit", func() { err = fl.Log(ev) }))
			if err != nil {
				return fmt.Errorf("store commit: %w", err)
			}
		}
	}
	r.set("store.commit_ms_p50", median(commitMs))
	r.set("store.commit_ms_p99", capQuantile(commitMs, 0.99))
	r.samples("store.commit_ms_p99", len(commitMs))

	wal, snap := fl.Stats()
	r.set("store.wal_bytes", float64(wal))
	r.set("store.snapshot_bytes", float64(snap))
	r.set("store.bytes_per_verdict", ratio(float64(wal+snap), float64(len(rp.scored))))
	if err := fl.Close(); err != nil {
		return err
	}
	var rec *store.Recovered
	r.set("store.open_recover_ms", 1000*r.tr.do(parent, "store.open", func() { fl, rec, err = store.Open(dir, store.Options{}) }))
	if err != nil {
		return fmt.Errorf("reopening the store: %w", err)
	}
	r.op(rec.Cache.Len() == len(rp.scored), "reopened store holds %d of %d verdicts", rec.Cache.Len(), len(rp.scored))
	return fl.Close()
}
