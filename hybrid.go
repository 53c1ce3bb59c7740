package crowder

import (
	"context"
	"errors"
	"math/rand"

	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/learn"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/simjoin"
	"github.com/crowder/crowder/internal/verdicts"
)

// stageRoute is the hybrid router: between prune and generate, it runs
// every fresh scored candidate through the session's online-trained
// classifier and resolves the ones outside the uncertainty band by
// machine — accept above the band, reject below — so only the band
// itself flows on to HIT generation. Machine verdicts enter the cache
// with machine provenance and log as one atomic commit; transitivity
// deduces over them, deltas never re-ask them, and matches rank them by
// the router's calibrated confidence.
//
// The band is cut from the training margin distribution at a per-class
// risk that adapts twice: pool quality (a noisy crowd makes HITs buy
// less certainty, loosening the band) and session budget (when the
// uncertain band's projected HIT cost exceeds the remaining
// HybridBudgetDollars, the risk doubles — capped at learn.MaxRisk —
// until the projection fits). Everything is deterministic in the
// session's journaled history — the cache and the learner the last
// aggregation commit journaled — and Options, preserving parallelism
// bit-identity and recovered ≡ never-crashed. A delta session's learner
// is warm-started, so for hybrid sessions delta ≡ scratch holds within
// F1 and HIT bounds, not bit for bit.
//
// The stage also audits: machine verdicts from earlier deltas that the
// freshly retrained model no longer endorses are demoted back into the
// crowd flow (see reviewMachineVerdictsLocked). Because the review runs
// even when the delta introduces no fresh candidates, a trailing
// ResolveDelta on a hybrid session acts as a pure audit pass — it
// re-asks exactly the machine verdicts the final model disputes, which
// is the one deliberate exception to "no new records, no crowd cost".
//
// The machine-only baseline (Options.MachineOnly) is the router with an
// empty band: every candidate is a machine verdict whose confidence is
// its likelihood, nothing goes to the crowd, and nothing is reviewed.
// With Hybrid off, or before the session has accumulated enough
// verdicts to train (HybridMinLabels, both classes), the stage is a
// pure pass-through and every candidate goes to the crowd.
func stageRoute(_ context.Context, st *resolveState) (*resolveState, error) {
	rv := st.rv
	if !rv.opts.hybrid() && !rv.opts.MachineOnly {
		return st, nil
	}
	rv.mu.Lock()
	defer rv.mu.Unlock()
	// judge returns candidate i's machine confidence, or false to leave
	// it to the crowd.
	judge := func(i int) (float64, bool) { return st.scored[i].Likelihood, true }
	var l *learn.Learner
	var band learn.Band
	if rv.opts.hybrid() {
		if rv.learner == nil {
			// First route of a fresh session: train from the cache now. (A
			// recovered session's learner was restored from the journal.)
			if _, err := rv.trainLearnerLocked(); err != nil {
				return nil, err
			}
		}
		if l = rv.learner; !l.Ready() {
			// Not enough paid verdicts yet: everything to the crowd, exactly
			// as a non-hybrid delta. The aggregation commit retrains.
			rv.lastBand, rv.lastRisk = learn.Band{}, 0
			return st, nil
		}

		// Margins are computed once; band search and partitioning reuse them.
		margins := make([]float64, len(st.scored))
		for i, sp := range st.scored {
			margins[i] = rv.feats.Margin(l, sp.Pair)
		}

		risk := learn.AdaptRisk(rv.opts.HybridRisk, rv.poolAccuracyLocked())
		band = l.Band(risk)
		if budget := rv.opts.HybridBudgetDollars; budget > 0 {
			// Budget ladder: deterministically double the risk until the
			// uncertain band's projected crowd cost fits the remaining
			// session budget, or the risk cap is reached (past it the
			// budget is advisory — quality floors beat
			// overspend-avoidance).
			remaining := max(budget-rv.spent, 0)
			for risk < learn.MaxRisk {
				uncertain := 0
				for _, m := range margins {
					if band.Decide(m) == learn.DecideCrowd {
						uncertain++
					}
				}
				if projectedCrowdCost(uncertain, rv.opts) <= remaining {
					break
				}
				risk = min(2*risk, learn.MaxRisk)
				band = l.Band(risk)
			}
		}
		rv.lastBand, rv.lastRisk = band, risk
		judge = func(i int) (float64, bool) {
			if band.Decide(margins[i]) == learn.DecideCrowd {
				return 0, false
			}
			return band.Confidence(margins[i]), true
		}
	}

	var uncertain []simjoin.ScoredPair
	var machine []verdicts.MachineVerdict
	for i, sp := range st.scored {
		if conf, ok := judge(i); ok {
			machine = append(machine, verdicts.MachineVerdict{Pair: sp.Pair, Likelihood: sp.Likelihood, Posterior: conf})
		} else {
			uncertain = append(uncertain, sp)
		}
	}
	var ws []verdicts.Window
	if len(machine) > 0 && !st.planOnly {
		ws = []verdicts.Window{{Machine: machine}}
		rv.cache.Apply(ws[0])
	}
	// Self-correction: re-score the machine verdicts of earlier deltas
	// under the retrained model. Any verdict the mature model no longer
	// stands behind is demoted to the crowd in this delta — the answers
	// upgrade the cache entry machine → asked, so a pair demotes at most
	// once and the crowd arbitrates it for good. This is what lets the
	// young model route aggressively: its early mistakes are revisited,
	// not frozen.
	var demoted []simjoin.ScoredPair
	if l != nil {
		demoted = rv.reviewMachineVerdictsLocked(l, band)
	}
	if len(demoted) > 0 {
		st.demoted = record.NewPairSet()
		for _, sp := range demoted {
			st.demoted.Add(sp.Pair.A, sp.Pair.B)
		}
		uncertain = append(uncertain, demoted...)
	}
	st.res.MachinePairs = len(machine)
	if len(machine) == 0 && len(demoted) == 0 {
		return st, nil
	}
	st.scored = uncertain
	if st.planOnly {
		return st, nil
	}
	// When the whole delta resolved by machine, no crowd stage will run
	// to clear the pending set, so this same commit clears it.
	if err := rv.logCommitLocked(ws, len(uncertain) == 0); err != nil {
		return nil, err
	}
	return st, nil
}

// reviewMachineVerdictsLocked re-scores every machine-resolved cache
// entry under the current model and band, returning the ones the model
// no longer endorses — now inside the band, or on the other side of it
// — for re-injection into the crowd flow. The sweep walks the cache in
// canonical pair order and reads the cache only: the entries keep their
// machine provenance until crowd answers arrive and upgrade them. The
// caller holds rv.mu for writing (the feature memo may fill).
func (r *Resolver) reviewMachineVerdictsLocked(l *learn.Learner, band learn.Band) []simjoin.ScoredPair {
	var demoted []simjoin.ScoredPair
	for e := range r.cache.Entries() {
		if e.Provenance != verdicts.Machine {
			continue
		}
		d := band.Decide(r.feats.Margin(l, e.Pair))
		if (d == learn.DecideMatch && e.Posterior >= 0.5) ||
			(d == learn.DecideNonMatch && e.Posterior < 0.5) {
			continue // the verdict still stands
		}
		demoted = append(demoted, simjoin.ScoredPair{Pair: e.Pair, Likelihood: e.Likelihood})
	}
	return demoted
}

// projectedCrowdCost is the band-adaptation cost model: the HIT count
// if the uncertain pairs were batched ClusterSize to a task, times the
// replication cost. Exact for pair-based HITs; for cluster-based ones
// it is an upper-bound proxy (the two-tiered packer typically fits more
// than ClusterSize pairs per group), which errs toward keeping the band
// wider — the conservative side.
func projectedCrowdCost(pairs int, opts Options) float64 {
	if pairs == 0 {
		return 0
	}
	hits := (pairs + opts.ClusterSize - 1) / opts.ClusterSize
	return float64(hits*opts.Assignments) * crowd.DollarsPerAssignment
}

// trainLearnerLocked retrains the router's classifier from the cache's
// current verdicts and reports whether the learner changed: asked pairs
// with answers and deduced pairs, labeled by their session posterior.
// Machine-resolved pairs are excluded — the learner never trains on its
// own predictions, so routing errors cannot compound. When the crowd's
// verdicts are (almost) all positive — a match-heavy workload never
// shows the learner a negative — the set is topped up with
// machine-pruned pseudo-negatives. The retrain is learn's Update from
// the session's previous learner: nothing when the label set is
// unchanged, one warm Pegasos epoch for a modest delta, a full train
// under the session seed otherwise — deterministic in (previous learner,
// cache, Options), and bit-identical whichever vectors the feature memo
// already held. The caller holds rv.mu for writing.
func (r *Resolver) trainLearnerLocked() (bool, error) {
	l, err := r.feats.Update(r.learner, r.trainingLabelsLocked(), r.learnOptions())
	if err != nil {
		return false, err
	}
	changed := l != r.learner
	r.learner = l
	return changed, nil
}

// learnOptions is the session's learner configuration.
func (r *Resolver) learnOptions() learn.Options {
	return learn.Options{Seed: r.opts.Seed, MinLabels: r.opts.HybridMinLabels}
}

// trainingLabelsLocked gathers trainLearnerLocked's labels. The caller
// holds rv.mu.
func (r *Resolver) trainingLabelsLocked() []learn.Label {
	labels := make([]learn.Label, 0, r.cache.Len())
	pos, neg, maxID := 0, 0, record.ID(0)
	for e := range r.cache.Entries() {
		if e.Pair.B > maxID {
			maxID = e.Pair.B // canonical pairs: B is the larger ID
		}
		switch e.Provenance {
		case verdicts.Asked:
			if len(e.Answers) == 0 {
				continue // likelihood-only entry: no judgment to learn from
			}
		case verdicts.Deduced:
			// Deduced verdicts carry proofs over asked pairs: real signal.
		default:
			continue // Machine: never self-train
		}
		match := e.Posterior >= 0.5
		if match {
			pos++
		} else {
			neg++
		}
		labels = append(labels, learn.Label{Pair: e.Pair, Match: match})
	}
	return append(labels, r.syntheticNegativesLocked(pos, neg, int(maxID)+1)...)
}

// syntheticNegLimit caps how many machine-pruned pseudo-negatives one
// training run mixes in.
const syntheticNegLimit = 256

// syntheticNegativesLocked tops up a positive-heavy training set with
// pairs the machine pass already rejected: random record pairs that are
// neither judged nor pending candidates sit below the likelihood
// threshold, which under the workflow's own pruning assumption
// (Section 4: sub-threshold pairs are non-matches the crowd never sees)
// makes them legitimate negative labels. Without this, a workload whose
// above-threshold candidates are almost all true matches — the
// product+dup benchmark — never shows the learner a negative and the
// router stays dormant. Sampling is driven by the session seed and
// filtered against the cache and pending set, so the result is
// deterministic in session state. The sampling domain is the first n
// record IDs — the caller passes the highest ID the cache has judged,
// NOT the live table length: records appended after the last
// aggregation must not shift the sample, or a recovered session (which
// recovers the rows appended after that aggregation too) would rebuild
// its learner over labels the session it replays never trained on.
// Only the negative side is ever synthesized: a sub-threshold pair may
// be presumed a non-match, but nothing short of a verdict may be
// presumed a match. The caller holds rv.mu.
func (r *Resolver) syntheticNegativesLocked(pos, neg, n int) []learn.Label {
	if pos == 0 || neg*4 >= pos {
		return nil // real negatives are plentiful enough to band on
	}
	need := min(pos, syntheticNegLimit) - neg
	if n > r.table.Len() {
		n = r.table.Len()
	}
	if need <= 0 || n < 2 {
		return nil
	}
	exclude := make(map[record.Pair]bool, len(r.pending))
	for _, sp := range r.pending {
		exclude[sp.Pair] = true
	}
	rng := rand.New(rand.NewSource(r.opts.Seed))
	var out []learn.Label
	for attempts := 0; attempts < 50*need && len(out) < need; attempts++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		p := record.MakePair(record.ID(i), record.ID(j))
		if exclude[p] || r.cache.Has(p) {
			continue
		}
		exclude[p] = true
		out = append(out, learn.Label{Pair: p, Match: false, Synthetic: true})
	}
	return out
}

// poolAccuracyLocked is the answer-weighted mean worker accuracy
// against the session's current posteriors — the pool-quality signal
// the router's risk adaptation reads: the report WorkerStats serves,
// reduced to one number in ascending worker order, so the float sum
// never depends on map order. Returns 0 (meaning "no evidence, no
// adaptation") before the first crowd answer is committed. The caller
// holds rv.mu.
func (r *Resolver) poolAccuracyLocked() float64 {
	var wsum float64
	var n int
	for _, s := range r.workerStatsLocked() {
		wsum += s.Accuracy * float64(s.Answers)
		n += s.Answers
	}
	if n == 0 {
		return 0
	}
	return wsum / float64(n)
}

// HybridStats is a hybrid session's routing posture: how the judged
// pairs split by provenance, the classifier's training coverage, and
// the uncertainty band the most recent routed delta used.
type HybridStats struct {
	// Enabled reports Options.Hybrid for the session.
	Enabled bool
	// MachinePairs, CrowdPairs and DeducedPairs split the cache's judged
	// pairs by provenance (CrowdPairs counts asked entries). A
	// MachineOnly session's pairs are all machine pairs.
	MachinePairs, CrowdPairs, DeducedPairs int
	// TrainingPos and TrainingNeg are the per-class label counts the
	// current learner was trained from (0 before the first training).
	TrainingPos, TrainingNeg int
	// Ready reports whether the learner has a usable model — enough
	// labels of both classes — so the next delta will actually route.
	Ready bool
	// BandLo and BandHi are the margin thresholds of the band the last
	// routed delta used (0 until a delta routes with a ready learner).
	BandLo, BandHi float64
	// Risk is the effective per-class machine-error budget behind that
	// band, after pool-quality and budget adaptation.
	Risk float64
	// SpentDollars is the session's cumulative crowd spend;
	// BudgetDollars echoes Options.HybridBudgetDollars.
	SpentDollars, BudgetDollars float64
}

// HybridStats reports the session's current hybrid-routing posture. It
// is meaningful for any session (a crowd-only one reports zero machine
// pairs, a MachineOnly one zero crowd pairs, and both Enabled false) and
// safe to call while a resolve is waiting on the crowd.
func (r *Resolver) HybridStats() HybridStats {
	r.mu.RLock()
	defer r.mu.RUnlock()
	hs := HybridStats{
		Enabled:       r.opts.hybrid(),
		MachinePairs:  r.cache.MachineLen(),
		DeducedPairs:  r.cache.DeducedLen(),
		Risk:          r.lastRisk,
		BandLo:        r.lastBand.Lo,
		BandHi:        r.lastBand.Hi,
		SpentDollars:  r.spent,
		BudgetDollars: r.opts.HybridBudgetDollars,
	}
	hs.CrowdPairs = r.cache.Len() - hs.MachinePairs - hs.DeducedPairs
	if r.learner != nil {
		hs.TrainingPos, hs.TrainingNeg = r.learner.Labels()
		hs.Ready = r.learner.Ready()
	}
	return hs
}

// EstimateDelta projects the next ResolveDelta of this live session —
// candidates, machine/crowd split, HIT count and cost — without running
// the crowd. Unlike the package-level EstimateCost (which estimates
// over a fresh throwaway session), the projection runs through this
// session's verdict cache and trained hybrid learner, so a mature
// hybrid session's estimate shows the shrunken uncertain band the next
// delta will actually pay for. The machine pass genuinely absorbs the
// delta into the join index; the discovered candidates are recorded as
// pending (exactly as a failed delta would leave them), so the
// following ResolveDelta resolves precisely the estimated work — the
// estimate changes when it is next paid for, never what.
func (r *Resolver) EstimateDelta() (*Estimate, error) {
	r.resolveMu.Lock()
	defer r.resolveMu.Unlock()
	r.mu.RLock()
	empty := r.table.Len() == 0
	r.mu.RUnlock()
	if empty {
		return nil, errors.New("crowder: empty table")
	}
	st := &resolveState{rv: r, planOnly: true, res: &Result{}}
	final, _, err := resolvePipeline().Upto("generate").Run(context.Background(), st)
	if err != nil {
		return nil, err
	}
	res := final.res
	return &Estimate{
		Candidates:   res.NewCandidates,
		MachinePairs: res.MachinePairs,
		CrowdPairs:   res.NewCandidates - res.MachinePairs,
		HITs:         res.HITs,
		CostDollars:  float64(res.HITs*r.opts.Assignments) * crowd.DollarsPerAssignment,
	}, nil
}
