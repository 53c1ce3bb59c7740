package crowder

import (
	"context"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/simjoin"
	"github.com/crowder/crowder/internal/transitivity"
	"github.com/crowder/crowder/internal/verdicts"
)

// transitiveRoundHITs bounds how many HITs one adaptive round posts at
// once. Smaller rounds deduce more (every completed round feeds the
// graph before the next is batched) but serialize more crowd latency;
// larger rounds lean on mid-flight retraction for their savings. Four
// keeps several HITs in flight — exercising retraction — while still
// deducing between rounds.
const transitiveRoundHITs = 4

// transitiveMaxProof bounds the number of asked pairs a deduction may
// rest on. Crowd answers are noisy and chains compound error, so
// verdicts needing a longer proof are asked directly instead of
// deduced.
const transitiveMaxProof = 3

// stageExecute drives the delta's fresh pairs through the asynchronous
// crowd lifecycle — post to the backend, collect assignments as they
// land, top up expired replication — in rounds of post → collect →
// deduce → retract, committing what each round learns to the verdict
// cache. With Options.Backend nil the backend is the reference
// simulator, fed by the Oracle.
//
// Transitivity only decides whether the rounds have a deduction graph.
// Without one there is nothing to deduce or retract: the loop runs one
// round posting the generate stage's batch of every fresh pair, and
// commits its answers with the cleared pending set as one log record.
// With one, each round batches the highest-likelihood pairs whose
// verdicts are still unknown, folds completed HITs' verdicts into the
// graph as they land (retracting in-flight HITs whose pairs become
// deducible), and then sweeps the remaining pairs: everything the graph
// now implies is recorded as a deduced verdict with provenance instead
// of being asked. Likelihood ordering makes the early rounds the
// probable matches, so clusters form fast and the deducible tail grows.
//
// If a round fails — most importantly, if ctx is cancelled while answers
// are still outstanding — the answers already collected are persisted as
// partial assignment sets (crowd work is paid for on assignment, not on
// batch completion) and the delta's candidates stay pending for retry.
func stageExecute(ctx context.Context, st *resolveState) (*resolveState, error) {
	rv := st.rv
	if len(st.scored) == 0 {
		// A recovered session with nothing left to crowdsource: every
		// recovered in-flight HIT covers already-judged pairs, so retract
		// them from the backend instead of leaving zombies for workers.
		if resume := rv.takeResume(); resume != nil && rv.opts.Backend != nil {
			retractLeftovers(rv.opts.Backend, resume)
		}
		return st, nil
	}
	opts := rv.opts

	backend, err := st.newBackend()
	if err != nil {
		return nil, err
	}

	// The deduction graph is rebuilt from the session's asked verdicts in
	// canonical order: deltas resume deducing from everything the crowd
	// has already answered. Only unanimous verdicts carry proofs. The
	// session's one graph, on slices indexed by record ID, is reset and
	// refilled rather than maintained across deltas (rebuildGraph says
	// why). The rebuild holds the session lock shared — it only reads
	// the cache.
	var g *transitivity.Graph
	if opts.Transitivity == TransitivityOn {
		rv.mu.RLock()
		g = rebuildGraph(rv, st.demoted)
		rv.mu.RUnlock()
	}

	var (
		remaining = append([]simjoin.ScoredPair(nil), st.scored...)
		deduced   int
		posted    int
		retracted int
		topUps    int
		answers   int
		completed int
		cost      float64
		elapsed   float64
	)

	// Progress events cross rounds: each round's lifecycle manager counts
	// from zero, so its events are offset by the running totals — a
	// client polling job progress sees hits/answers/retractions
	// accumulate over the delta instead of sawtoothing per round.
	// TotalHITs is the tasks posted so far; it grows as rounds post
	// (adaptive scheduling cannot know the final count up front).
	progress := opts.Progress
	if progress != nil {
		outer := progress
		progress = func(p crowd.Progress) {
			p.TotalHITs = posted
			p.CompletedHITs += completed
			p.Answers += answers
			p.TopUps += topUps
			p.Retracted += retracted
			outer(p)
		}
	}

	// commit records a round under the session lock: window pairs the
	// round answered become asked verdicts with their crowd answers, and
	// a retracted HIT's unanswered pairs are deduced (any pair that somehow
	// is not — a conservative impossibility — is simply re-batched). It
	// then sweeps the remaining pairs for everything the graph now implies
	// and, once nothing remains, clears the pending set. The cache takes
	// it as three windows — the window's deductions, its asked pairs, the
	// sweep's deductions, on disjoint pairs — logged as one atomic commit:
	// a crash replays either none of it (the pairs retry) or all of it
	// (judged, never re-asked). With no round yet (window and run nil) it
	// only sweeps.
	commit := func(window []simjoin.ScoredPair, batch hitBatch, answered record.PairSet, run *crowd.Result) error {
		rv.mu.Lock()
		defer rv.mu.Unlock()
		var ws []verdicts.Window
		var ded []verdicts.DeducedVerdict
		deduce := func(sp simjoin.ScoredPair) bool {
			d, ok := g.Deduce(sp.Pair)
			if ok {
				ded = append(ded, verdicts.DeducedVerdict{Likelihood: sp.Likelihood, Proof: d})
			}
			return ok
		}
		flush := func() {
			if len(ded) > 0 {
				deduced += len(ded)
				ws, ded = append(ws, verdicts.Window{Deduced: ded}), nil
			}
		}
		asked := verdicts.AskedWindow{Pairs: make([]simjoin.ScoredPair, 0, len(window)), Reserve: opts.Assignments}
		at := make([]int32, len(window)) // slot → index in asked.Pairs, or −1
		var requeue []simjoin.ScoredPair
		for i, sp := range window {
			at[i] = -1
			if g == nil || answered.Has(sp.Pair.A, sp.Pair.B) {
				at[i] = int32(len(asked.Pairs))
				asked.Pairs = append(asked.Pairs, sp)
			} else if !deduce(sp) {
				requeue = append(requeue, sp)
			}
		}
		flush()
		if run != nil {
			asked.Answers, asked.At = run.Answers, answerIndex(batch, run, at)
		}
		if len(asked.Pairs)+len(asked.Answers) > 0 {
			ws = append(ws, verdicts.Window{Asked: &asked})
		}
		if len(requeue) > 0 {
			remaining = append(requeue, remaining...)
		}
		if g != nil {
			keep := remaining[:0]
			for _, sp := range remaining {
				if !deduce(sp) {
					keep = append(keep, sp)
				}
			}
			remaining = keep
		}
		flush()
		for _, w := range ws {
			rv.cache.Apply(w)
		}
		return rv.logCommitLocked(ws, len(remaining) == 0)
	}

	resume := rv.takeResume()
	defer func() { rv.returnResume(resume) }()

	if err := commit(nil, hitBatch{}, nil, nil); err != nil {
		return nil, err
	}
	for len(remaining) > 0 {
		// Window: the next round's pairs, at most transitiveRoundHITs
		// HITs' worth, highest likelihood first — minus the pairs that
		// would close a cycle among the pairs already chosen. If the
		// chosen pairs come back as the matches their likelihood
		// predicts, a deferred cycle-closer is deducible for free next
		// round; if they don't, it is still askable then. Asking only
		// (would-be) spanning edges first is where most of the HIT
		// savings on clustered data come from.
		var window []simjoin.ScoredPair
		if g == nil || opts.HITType == ClusterHITs {
			// Cluster HITs already exploit transitivity *within* each
			// record group (the worker's labelling is transitively
			// closed), and any pair deferred to a later round would
			// fragment the two-tiered packing into strictly more HITs.
			// So cluster rounds take everything still unknown at once —
			// identical packing to the one-shot generator — and the
			// adaptive savings come from the sweep (pairs a delta can
			// deduce from cached verdicts are never batched at all) and
			// from mid-flight retraction across the in-flight groups.
			window, remaining = remaining, nil
		} else {
			window, remaining = selectWindow(g, remaining, opts.ClusterSize*transitiveRoundHITs)
		}

		// The sweep and the window only drop pairs, so a first window as
		// long as the delta is the generate stage's pairs in its order.
		batch := st.batch
		if posted > 0 || len(window) != len(st.scored) {
			if batch, err = batchHITs(simjoin.Pairs(window), opts); err != nil {
				return nil, err
			}
		}
		hits := batch.tasks(opts.Assignments, posted, window)
		posted += len(hits)

		eo := crowd.ExecuteOptions{
			OnProgress: progress,
			Interim:    opts.InterimAggregation,
			Aggregator: rv.agg,
			Resume:     resume,
		}
		// answered tracks the pairs whose verdicts this round's completed
		// HITs delivered; retraction treats them as resolved alongside the
		// graph's deductions.
		var answered record.PairSet
		if g != nil {
			answered = record.NewPairSet()
			eo.OnHITComplete = func(h crowd.HIT, hitAns []aggregate.Answer) {
				for _, v := range hitVerdicts(h, hitAns) {
					answered.Add(v.pair.A, v.pair.B)
					g.ObserveStrength(v.pair, v.match, v.strong)
				}
			}
			// Polled for every in-flight HIT after each completion — the
			// collector's hot path — so the existence-only Deducible probe
			// stands in for Deduce (no proof materialization).
			eo.Retractable = func(h crowd.HIT) bool {
				for _, p := range h.Pairs {
					if !answered.Has(p.A, p.B) && !g.Deducible(p) {
						return false
					}
				}
				return true
			}
		}
		// The crowd runs without the session lock — this is the window
		// reads overlap with — and only the commit re-takes it.
		run, err := crowd.ExecuteHITs(ctx, backend, hits, eo)
		if err != nil {
			if run != nil {
				// Partial assignment sets survive the failure: the crowd
				// work is already paid for. The log error (if any) is
				// sticky and surfaces on the next commit.
				w := verdicts.Window{Partial: run.Answers}
				rv.mu.Lock()
				rv.cache.Apply(w)
				rv.logCommitLocked([]verdicts.Window{w}, false)
				rv.mu.Unlock()
			}
			return nil, err
		}

		cost += run.CostDollars
		elapsed += run.TotalSeconds // rounds serialize: the crowd answers them in sequence
		retracted += run.RetractedHITs
		topUps += run.TopUps
		completed += len(hits) - run.RetractedHITs
		answers += len(run.Answers)

		if err := commit(window, batch, answered, run); err != nil {
			return nil, err
		}
	}

	// Every round completed: recovered HITs never matched by any round
	// cover pairs judged before the crash — withdraw them.
	retractLeftovers(backend, resume)
	resume = nil

	st.res.HITsSaved = st.res.HITs - posted
	st.res.HITs = posted
	st.res.DeducedPairs = deduced
	st.res.RetractedHITs = retracted
	st.res.CostDollars = cost
	st.res.ElapsedSeconds = elapsed
	return st, nil
}

// answerIndex is the At column of a round's asked window: each answer's
// pair's index in the window, found through its HIT's slots (at maps a
// slot to the index, −1 if not asked) within the answer's span, or −1.
// An empty run has no spans: nil, every answer found by pair.
func answerIndex(batch hitBatch, run *crowd.Result, at []int32) []int32 {
	if len(run.Spans) != len(batch.pairs)+1 {
		return nil
	}
	out := make([]int32, len(run.Answers))
	for i := range out {
		out[i] = -1
	}
	for h, ps := range batch.pairs {
		// A HIT's answers visit its pairs in order, pair-major (a pair's
		// replicas adjacent) or assignment-major (a worker's pass), so an
		// answer's pair is the previous answer's or the one after it.
		slots, j := batch.slots[h], 0
		for i := run.Spans[h]; i < run.Spans[h+1]; i++ {
			for try := 0; try < 2 && len(ps) > 0; try, j = try+1, (j+1)%len(ps) {
				if ps[j] == run.Answers[i].Pair && at[slots[j]] >= 0 {
					out[i] = at[slots[j]]
					break
				}
			}
		}
	}
	return out
}

// rebuildGraph reconstructs the session's deduction graph from the
// cache's first-hand verdicts — asked and machine-resolved — and returns
// it. The graph lives on slices indexed by record ID, kept by the
// Resolver across deltas: each round resets it, keeping its storage, and
// refills it in canonical order. The plain recompute is kept over
// semi-naive evaluation on purpose: re-aggregation moves posteriors
// across 0.5 and the router demotes machine verdicts, so edges can
// vanish between rounds, and a refill from the canonical walk is what
// makes the graph — and every proof — identical to a from-scratch
// session's. The caller holds rv.resolveMu and the session lock (shared
// suffices).
//
// Machine verdicts observe as strong edges: the hybrid router only
// resolves a pair by machine when its margin clears the session's
// configured risk bar, the same "confident enough to build proofs on"
// standard the unanimity test applies to crowd answers. With Hybrid off
// the cache holds no machine entries and the rebuild is bit-identical
// to the asked-only one.
func rebuildGraph(rv *Resolver, underReview record.PairSet) *transitivity.Graph {
	g := rv.graph
	g.Reset()
	g.MaxProof = transitiveMaxProof
	for _, e := range rv.cache.GroundEntries() {
		if e.Provenance == verdicts.Machine && underReview.Has(e.Pair.A, e.Pair.B) {
			// Machine verdicts the router demoted this delta are not ground
			// truth while under review: their edges are dropped so the sweep
			// cannot deduce a demoted pair right back from its own contested
			// verdict. Deduction from *independent* evidence remains fine.
			continue
		}
		match := e.Posterior >= 0.5
		strong := e.Provenance == verdicts.Machine || unanimous(e.Answers, match)
		g.ObserveStrength(e.Pair, match, strong)
	}
	return g
}

// selectWindow picks up to max pairs from remaining (highest likelihood
// first) for the next round, skipping pairs whose endpoints are already
// connected by the graph's clusters plus the pairs chosen so far: if
// those in-flight pairs are confirmed as matches, the skipped pair is
// deduced for free; if not, it stays in remaining and is batched by a
// later round. Returns the window and the rest (skipped pairs first,
// order otherwise preserved). The first remaining pair is always
// selectable — the sweep already removed everything deducible — so
// every round makes progress.
func selectWindow(g *transitivity.Graph, remaining []simjoin.ScoredPair, max int) (window, rest []simjoin.ScoredPair) {
	// The speculative "every in-flight pair matches" closure for this
	// window only: at most one link per window pair, each from a cluster
	// root to the root it was merged into, few enough to scan.
	links := make([][2]record.ID, 0, max)
	root := func(v record.ID) record.ID {
		for i := 0; i < len(links); i++ {
			if links[i][0] == v {
				v, i = links[i][1], -1
			}
		}
		return v
	}
	// The deferred pairs are compacted to the front of remaining, which
	// becomes the rest.
	i, k := 0, 0
	for ; i < len(remaining) && len(window) < max; i++ {
		sp := remaining[i]
		ga, gb := g.Root(sp.Pair.A), g.Root(sp.Pair.B)
		if ga == gb {
			// Already one cluster in the real graph, yet the sweep could
			// not deduce the pair (its only proof runs through contested
			// links, or exceeds the proof bound): ask the crowd directly.
			window = append(window, sp)
			continue
		}
		ra, rb := root(ga), root(gb)
		if ra == rb {
			remaining[k] = sp // would close a speculative cycle: defer
			k++
			continue
		}
		links = append(links, [2]record.ID{ra, rb})
		window = append(window, sp)
	}
	return window, append(remaining[:k], remaining[i:]...)
}

// pairVerdict is one pair's majority verdict from a completed HIT.
// strong marks a unanimous replica set — the only verdicts deduction
// proofs are allowed to rest on.
type pairVerdict struct {
	pair   record.Pair
	match  bool
	strong bool
}

// hitVerdicts reduces a completed HIT's raw answers to one majority
// verdict per covered pair, in the HIT's deterministic pair order. Ties
// (possible with an even replication factor) resolve to non-match: the
// deduction graph only merges clusters on a strict majority.
func hitVerdicts(h crowd.HIT, answers []aggregate.Answer) []pairVerdict {
	matches := make(map[record.Pair]int, len(h.Pairs))
	total := make(map[record.Pair]int, len(h.Pairs))
	for _, a := range answers {
		total[a.Pair]++
		if a.Match {
			matches[a.Pair]++
		}
	}
	out := make([]pairVerdict, 0, len(h.Pairs))
	seen := make(map[record.Pair]bool, len(h.Pairs))
	for _, p := range h.Pairs {
		if seen[p] {
			continue
		}
		seen[p] = true
		match := 2*matches[p] > total[p]
		out = append(out, pairVerdict{pair: p, match: match, strong: strong(matches[p], total[p], match)})
	}
	return out
}

// strong is the strength bar deduction proofs rest on, for fresh and
// cached verdicts alike: m of total answers said match, and all of them
// agree with the verdict.
func strong(m, total int, match bool) bool {
	return total > 0 && (m == total) == match && (m == 0) != match
}

// unanimous reports whether a cached entry's raw answers clear the
// strength bar for its aggregated verdict.
func unanimous(answers []aggregate.Answer, match bool) bool {
	m := 0
	for _, a := range answers {
		if a.Match {
			m++
		}
	}
	return strong(m, len(answers), match)
}

// deriveDeduced re-derives every deduced verdict's confidence from the
// current posteriors of its proof. A proof can rest on a pair deduced
// after it (a machine verdict the router demoted, then deduced from
// independent evidence); that pair is derived first, so every result is
// a function of the asked and machine posteriors alone — not of the
// visiting order, nor of values an earlier delta left behind, which a
// restored session does not have.
func deriveDeduced(cache *verdicts.Cache) {
	done := make(map[*verdicts.Entry]bool)
	var post func(record.Pair) (float64, bool)
	derive := func(e *verdicts.Entry) float64 {
		if e.Provenance == verdicts.Deduced && !done[e] {
			done[e] = true // marked first: a cyclic proof (a corrupt log) reads the stored value
			e.Posterior = deducedConfidence(e.Deduction, post)
		}
		return e.Posterior
	}
	post = func(p record.Pair) (float64, bool) {
		if e := cache.Get(p); e != nil {
			return derive(e), true
		}
		return 0, false
	}
	for e := range cache.Entries() {
		derive(e)
	}
}

// deducedConfidence converts a deduction's proof into a match
// probability using the posteriors post reports for its supporting
// pairs. A chain of matches is only as strong as its weakest link, so
// the proof strength is the minimum posterior along the path — for a
// negative deduction additionally min'd with the witness non-match's
// complement. Supporting pairs whose posteriors drifted across 0.5
// after re-aggregation weaken the deduction past the decision boundary:
// a deduction is never more certain than what it rests on.
//
// A positive deduction reports the strength directly (strength < 0.5 ⇒
// the chain is broken and the pair is not accepted). A negative one
// maps strength s to (1−s)/2 ∈ [0, 0.5]: an ironclad proof of A≠B
// yields confidence ~0, and a *broken* proof decays toward 0.5 —
// "nothing is known" — never past it. (The naive complement 1−s would
// invert: the more broken the non-match proof, the more confidently the
// pair would be published as a match.)
func deducedConfidence(d *transitivity.Deduction, post func(record.Pair) (float64, bool)) float64 {
	strength := 1.0
	for _, p := range d.Path {
		if v, ok := post(p); ok && v < strength {
			strength = v
		}
	}
	if !d.Negative {
		return strength
	}
	if v, ok := post(d.Witness); ok && 1-v < strength {
		strength = 1 - v
	}
	return (1 - strength) / 2
}
