package crowder

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/crowder/crowder/internal/learn"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/verdicts"
)

// shuffledResolverDataset is resolverDataset under a deterministic
// permutation, with the oracle pairs remapped and the ground truth
// returned as a PairSet. The unshuffled generator appends every
// duplicate after all the base records, so a batched session over it
// sees no matching pairs until the final batches — useless for a router
// that must learn both classes early. Shuffling spreads the matches
// uniformly over the session's lifetime.
func shuffledResolverDataset(seed int64, records, dups int) ([][]string, []string, []Pair, record.PairSet) {
	rows, schema, oracle := resolverDataset(seed, records, dups)
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(rows))
	shuffled := make([][]string, len(rows))
	where := make([]int, len(rows))
	for newPos, old := range perm {
		shuffled[newPos] = rows[old]
		where[old] = newPos
	}
	remapped := make([]Pair, len(oracle))
	truth := record.NewPairSet()
	for i, p := range oracle {
		remapped[i] = Pair{A: where[p.A], B: where[p.B]}
		truth.Add(record.ID(where[p.A]), record.ID(where[p.B]))
	}
	return shuffled, schema, remapped, truth
}

// hybridSession runs a k-batch incremental session over rows and returns
// the resolver plus the per-delta results.
func hybridSession(t *testing.T, schema []string, rows [][]string, batches int, opts Options) (*Resolver, []*Result) {
	t.Helper()
	rv, err := NewResolver(NewTable(schema...), opts)
	if err != nil {
		t.Fatal(err)
	}
	var results []*Result
	size := (len(rows) + batches - 1) / batches
	for lo := 0; lo < len(rows); lo += size {
		hi := min(lo+size, len(rows))
		rv.AppendBatch(rows[lo:hi]...)
		res, err := rv.ResolveDelta()
		if err != nil {
			t.Fatal(err)
		}
		results = append(results, res)
	}
	return rv, results
}

// drainAudits runs trailing empty deltas until the router's review pass
// goes quiet (bounded), appending each non-idle result to results. The
// returned slice ends with the session's converged state.
func drainAudits(t *testing.T, rv *Resolver, results []*Result) []*Result {
	t.Helper()
	for i := 0; i < 5; i++ {
		res, err := rv.ResolveDelta()
		if err != nil {
			t.Fatal(err)
		}
		if res.HITs == 0 {
			return results
		}
		results = append(results, res)
	}
	t.Fatal("audit passes did not converge within 5 empty deltas")
	return nil
}

func sumHITs(results []*Result) (hits, machine int) {
	for _, r := range results {
		hits += r.HITs
		machine += r.MachinePairs
	}
	return hits, machine
}

// Hybrid routing is strictly opt-in: HybridOff is the zero value, and a
// default resolution reports no machine work and an all-crowd estimate.
func TestHybridOffIsDefault(t *testing.T) {
	if HybridOff != 0 {
		t.Fatal("HybridOff must be the zero value")
	}
	tab, oracle := paperTable()
	res, err := Resolve(tab, Options{Threshold: 0.3, Oracle: oracle, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.MachinePairs != 0 {
		t.Errorf("default resolve reports %d machine pairs", res.MachinePairs)
	}
	tab2, _ := paperTable()
	est, err := EstimateCost(tab2, Options{Threshold: 0.3, Oracle: oracle, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if est.MachinePairs != 0 || est.CrowdPairs != est.Candidates {
		t.Errorf("default estimate splits %d machine / %d crowd of %d", est.MachinePairs, est.CrowdPairs, est.Candidates)
	}
}

// Tentpole acceptance at test scale: over a multi-delta session the
// learning router resolves a growing share of candidates by machine, so
// the session posts at least 40% fewer HITs at equal-or-better F1 than
// the identical session without the router — and every candidate is
// still judged.
func TestHybridSessionFewerHITsEqualOrBetterF1(t *testing.T) {
	rows, schema, oracle, truth := productDupDataset()
	base := Options{
		Threshold: 0.5, HITType: PairHITs, ClusterSize: 10,
		Oracle: oracle, Seed: 1, SpammerRate: NoSpammers,
		Transitivity: TransitivityOn,
	}
	const batches = 6

	rvOff, offResults := hybridSession(t, schema, rows, batches, base)
	onOpts := base
	onOpts.Hybrid = HybridOn
	rvOn, onResults := hybridSession(t, schema, rows, batches, onOpts)

	// The hybrid session ends with its self-audit passes: trailing empty
	// deltas in which the final model reviews its own machine verdicts
	// and re-asks any it no longer endorses. Their HITs are part of the
	// session's crowd cost.
	onResults = drainAudits(t, rvOn, onResults)
	assertMatchesRankCache(t, "hybrid session", rvOn, onResults[len(onResults)-1].Matches)

	offHITs, offMachine := sumHITs(offResults)
	onHITs, onMachine := sumHITs(onResults)
	if offMachine != 0 {
		t.Fatalf("non-hybrid session reports %d machine pairs", offMachine)
	}
	if onMachine == 0 {
		t.Fatal("hybrid session resolved nothing by machine")
	}
	// At least 40% fewer HITs; measured 57 → 14 here.
	if float64(onHITs) > 0.6*float64(offHITs) {
		t.Errorf("hybrid posted %d HITs; baseline posted %d — under the 40%% saving floor", onHITs, offHITs)
	}
	// The first delta routes nothing (no verdicts to train from yet);
	// the savings come from later deltas, so crowd cost falls over the
	// session's lifetime.
	if onResults[0].MachinePairs != 0 {
		t.Errorf("first delta machine-resolved %d pairs with an untrained learner", onResults[0].MachinePairs)
	}
	offF1 := f1Against(truth, offResults[len(offResults)-1])
	onF1 := f1Against(truth, onResults[len(onResults)-1])
	if onF1 < offF1 {
		t.Errorf("hybrid F1 %.4f below baseline %.4f", onF1, offF1)
	}

	// Every candidate is judged — asked, deduced or machine — and the
	// cache's provenance split matches the per-delta accounting.
	if rvOn.JudgedPairs() != rvOff.JudgedPairs() {
		t.Errorf("hybrid judged %d pairs; baseline judged %d", rvOn.JudgedPairs(), rvOff.JudgedPairs())
	}
	stats := rvOn.HybridStats()
	if !stats.Enabled || !stats.Ready {
		t.Errorf("HybridStats = %+v; want enabled and ready", stats)
	}
	// The cache can hold fewer machine entries than the deltas reported:
	// a reviewed verdict the crowd re-judged is upgraded to asked, and a
	// transitive deduction supersedes a machine call. It can never hold
	// more.
	if stats.MachinePairs == 0 || stats.MachinePairs > onMachine {
		t.Errorf("cache holds %d machine pairs; deltas reported %d", stats.MachinePairs, onMachine)
	}
	// Band invariants: the accept bar is positive and the crowd band is
	// at least the safety gap wide. Lo may legitimately sit above zero —
	// rejection is quantile logic over the training positives, not sign
	// logic.
	if stats.BandHi <= 0 || stats.BandLo >= stats.BandHi {
		t.Errorf("band [%v, %v] is not a positive-width band under a positive accept bar", stats.BandLo, stats.BandHi)
	}
	if stats.SpentDollars <= 0 {
		t.Errorf("SpentDollars = %v; want the session's crowd spend", stats.SpentDollars)
	}

	// Post-audit the session is settled: a further empty delta asks
	// nothing, routes nothing, and disputes nothing.
	again, err := rvOn.ResolveDelta()
	if err != nil {
		t.Fatal(err)
	}
	if again.HITs != 0 || again.MachinePairs != 0 || again.NewCandidates != 0 {
		t.Errorf("idle delta did work: %+v", again)
	}
}

// Satellite pinning: the hybrid session — training, routing, machine
// verdicts, matches — is bit-identical on a rerun and at every
// parallelism level. Map-order nondeterminism anywhere in the train/route
// path would break this across reruns and configurations.
func TestHybridDeterminismAcrossParallelism(t *testing.T) {
	rows, schema, oracle, _ := shuffledResolverDataset(13, 400, 80)
	optsAt := func(par int) Options {
		return Options{
			Threshold: 0.4, HITType: PairHITs, ClusterSize: 10,
			Oracle: oracle, Seed: 1, SpammerRate: NoSpammers,
			Hybrid: HybridOn, Parallelism: par,
		}
	}
	ref, refResults := hybridSession(t, schema, rows, 4, optsAt(1))
	if _, machine := sumHITs(refResults); machine == 0 {
		t.Fatal("fixture session routed nothing by machine; the pinning is vacuous")
	}
	for _, par := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			rv, results := hybridSession(t, schema, rows, 4, optsAt(par))
			for i, res := range results {
				want := refResults[i]
				if res.HITs != want.HITs || res.MachinePairs != want.MachinePairs ||
					res.CostDollars != want.CostDollars || res.NewCandidates != want.NewCandidates {
					t.Errorf("delta %d accounting differs: got HITs=%d machine=%d, want HITs=%d machine=%d",
						i, res.HITs, res.MachinePairs, want.HITs, want.MachinePairs)
				}
			}
			assertSameMatches(t, "hybrid matches", refResults[len(refResults)-1].Matches, results[len(results)-1].Matches)
			a, b := ref.HybridStats(), rv.HybridStats()
			if a != b {
				t.Errorf("variant diverged: %+v vs %+v", a, b)
			}
		})
	}
}

// The router's feature memo is pure memoisation, and the session's
// learner is learn's Update from the previous delta's: after every delta
// of a hybrid session the learner is deep-equal to a cold learn.Train
// over the same labels where the full-train rule fires (no ready
// predecessor, a shrunken label set, or a quarter more labels than at
// the last full train), and otherwise to the warm step a cold memo takes
// from the previous learner. The memo holds no more vectors than the
// session has judged or pending pairs — synthetic negatives, which fire
// on the match-heavy product workload, are computed but never memoised.
func TestHybridFeatureMemo(t *testing.T) {
	restaurant, rSchema, rOracle, _ := shuffledResolverDataset(13, 400, 80)
	product, pSchema, pOracle, _ := productDupDataset()
	warms := 0
	for _, tc := range []struct {
		name      string
		rows      [][]string
		schema    []string
		opts      Options
		synthetic bool
	}{
		{"restaurant", restaurant, rSchema, Options{
			Threshold: 0.4, HITType: PairHITs, ClusterSize: 10,
			Oracle: rOracle, Seed: 1, SpammerRate: NoSpammers, Hybrid: HybridOn,
		}, false},
		{"product", product, pSchema, Options{
			Threshold: 0.5, HITType: ClusterHITs, ClusterSize: 10,
			Oracle: pOracle, Seed: 1, SpammerRate: NoSpammers, Hybrid: HybridOn,
			Transitivity: TransitivityOn,
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rv, err := NewResolver(NewTable(tc.schema...), tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			lopts := learn.Options{Seed: rv.opts.Seed, MinLabels: rv.opts.HybridMinLabels}
			const batches = 5
			size := (len(tc.rows) + batches - 1) / batches
			routed, synthetic := 0, 0
			var prev *learn.Learner
			for lo := 0; lo < len(tc.rows); lo += size {
				rv.AppendBatch(tc.rows[lo:min(lo+size, len(tc.rows))]...)
				res, err := rv.ResolveDelta()
				if err != nil {
					t.Fatal(err)
				}
				routed += res.MachinePairs
				rv.mu.Lock()
				if n, bound := rv.feats.Len(), rv.cache.Len()+len(rv.pending); n > bound {
					t.Errorf("after the delta at record %d the memo holds %d vectors; bound %d", lo, n, bound)
				}
				labels := rv.trainingLabelsLocked()
				learner := rv.learner
				rv.mu.Unlock()
				for _, l := range labels {
					if l.Synthetic {
						synthetic++
					}
				}
				s := learner.State()
				if prev == nil || !prev.Ready() || s.N < prev.State().N || 4*s.N >= 5*prev.State().Full {
					cold, err := learn.Train(rv.table.inner, labels, lopts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(learner, cold) {
						t.Fatalf("after the delta at record %d the session learner differs from a cold retrain", lo)
					}
				} else if learner != prev {
					warms++
					ref, err := learn.NewFeatures(rv.table.inner).Update(prev, labels, lopts)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(learner, ref) {
						t.Fatalf("after the delta at record %d the session learner differs from a cold memo's warm step", lo)
					}
					if ps := prev.State(); s.T != ps.T+s.N || s.Full != ps.Full {
						t.Fatalf("after the delta at record %d the warm step ran %d steps from %d over %d labels", lo, s.T-ps.T, ps.T, s.N)
					}
				}
				prev = learner
			}
			if routed == 0 {
				t.Error("session routed nothing by machine; the memo was never read by the route stage")
			}
			if tc.synthetic && synthetic == 0 {
				t.Error("no synthetic negatives fired; the memo bound is untested against them")
			}
		})
	}
	if warms == 0 {
		t.Error("no delta took a warm step; the warm pin is vacuous")
	}
}

// Satellite: estimates are hybrid-aware. A fresh session projects the
// all-crowd plan (the learner has nothing to train from — exactly what
// the one-shot run will do); a live trained session's EstimateDelta
// projects the machine/crowd split the next delta actually pays for.
func TestHybridEstimates(t *testing.T) {
	rows, schema, oracle, _ := shuffledResolverDataset(17, 400, 80)
	base := Options{
		Threshold: 0.4, HITType: PairHITs, ClusterSize: 10,
		Oracle: oracle, Seed: 1, SpammerRate: NoSpammers,
	}
	build := func() *Table {
		tab := NewTable(schema...)
		for _, r := range rows {
			tab.Append(r...)
		}
		return tab
	}

	// Table-driven: fresh-session estimates route nothing regardless of
	// mode, and hybrid-off ≡ hybrid-on on a fresh table.
	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"default", func(o *Options) {}},
		{"hybrid-on", func(o *Options) { o.Hybrid = HybridOn }},
		{"hybrid-on-budgeted", func(o *Options) { o.Hybrid = HybridOn; o.HybridBudgetDollars = 5 }},
	}
	var freshRef *Estimate
	for _, c := range cases {
		opts := base
		c.mutate(&opts)
		est, err := EstimateCost(build(), opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if est.MachinePairs != 0 {
			t.Errorf("%s: fresh estimate machine-resolves %d pairs", c.name, est.MachinePairs)
		}
		if est.CrowdPairs != est.Candidates {
			t.Errorf("%s: CrowdPairs %d ≠ Candidates %d", c.name, est.CrowdPairs, est.Candidates)
		}
		if freshRef == nil {
			freshRef = est
		} else if *est != *freshRef {
			t.Errorf("%s: fresh estimate %+v differs from default %+v", c.name, est, freshRef)
		}
	}

	// Live session: train on the first half, then estimate the second.
	opts := base
	opts.Hybrid = HybridOn
	rv, err := NewResolver(NewTable(schema...), opts)
	if err != nil {
		t.Fatal(err)
	}
	half := len(rows) / 2
	rv.AppendBatch(rows[:half]...)
	if _, err := rv.ResolveDelta(); err != nil {
		t.Fatal(err)
	}
	if !rv.HybridStats().Ready {
		t.Fatal("learner not ready after the first delta; fixture too small")
	}
	rv.AppendBatch(rows[half:]...)
	est, err := rv.EstimateDelta()
	if err != nil {
		t.Fatal(err)
	}
	if est.MachinePairs == 0 {
		t.Fatal("trained session's estimate routes nothing by machine")
	}
	if est.CrowdPairs != est.Candidates-est.MachinePairs {
		t.Errorf("estimate split %d+%d ≠ %d candidates", est.MachinePairs, est.CrowdPairs, est.Candidates)
	}

	// The estimate is the plan the next delta executes: identical split,
	// HIT count and spend.
	res, err := rv.ResolveDelta()
	if err != nil {
		t.Fatal(err)
	}
	if res.MachinePairs != est.MachinePairs || res.HITs != est.HITs || res.CostDollars != est.CostDollars {
		t.Errorf("delta (machine=%d hits=%d $%v) diverged from estimate (machine=%d hits=%d $%v)",
			res.MachinePairs, res.HITs, res.CostDollars, est.MachinePairs, est.HITs, est.CostDollars)
	}
	if res.NewCandidates != est.Candidates {
		t.Errorf("delta resolved %d new candidates; estimate projected %d", res.NewCandidates, est.Candidates)
	}
}

// A session budget squeezes the uncertainty band: under a tight
// HybridBudgetDollars the router escalates its risk (capped at the
// quality floor) and resolves more by machine, so the session spends
// less crowd money than its unbudgeted twin.
func TestHybridBudgetWidensMachineBand(t *testing.T) {
	rows, schema, oracle, _ := shuffledResolverDataset(13, 400, 80)
	base := Options{
		Threshold: 0.4, HITType: PairHITs, ClusterSize: 10,
		Oracle: oracle, Seed: 1, SpammerRate: NoSpammers, Hybrid: HybridOn,
	}
	_, freeResults := hybridSession(t, schema, rows, 4, base)

	tight := base
	tight.HybridBudgetDollars = 0.30
	rvTight, tightResults := hybridSession(t, schema, rows, 4, tight)

	freeHITs, freeMachine := sumHITs(freeResults)
	tightHITs, tightMachine := sumHITs(tightResults)
	if tightMachine <= freeMachine {
		t.Errorf("tight budget machine-resolved %d pairs; unbudgeted resolved %d — the ladder never engaged", tightMachine, freeMachine)
	}
	if tightHITs >= freeHITs {
		t.Errorf("tight budget posted %d HITs; unbudgeted posted %d", tightHITs, freeHITs)
	}
	stats := rvTight.HybridStats()
	if stats.Risk <= base.HybridRisk {
		t.Errorf("budgeted session's effective risk %v never escalated", stats.Risk)
	}
	if stats.BudgetDollars != 0.30 {
		t.Errorf("BudgetDollars = %v; want 0.30", stats.BudgetDollars)
	}
}

// Machine verdicts, the learner's training source, and the spend counter
// all survive a crash: a restored session reports identical hybrid stats
// and continues bit-identically to a twin that never crashed.
func TestHybridPersistenceRoundTrip(t *testing.T) {
	rows, schema, oracle, _ := shuffledResolverDataset(13, 300, 60)
	mkOpts := func(dir string) Options {
		return Options{
			Threshold: 0.4, HITType: PairHITs, ClusterSize: 10,
			Oracle: oracle, Seed: 1, SpammerRate: NoSpammers,
			Hybrid: HybridOn, Store: openTestStore(t, dir),
		}
	}
	const batches = 4
	batch := func(rv *Resolver, i int) *Result {
		t.Helper()
		size := (len(rows) + batches - 1) / batches
		lo := i * size
		rv.AppendBatch(rows[lo:min(lo+size, len(rows))]...)
		res, err := rv.ResolveDelta()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Twin A: four deltas, no crash.
	dirA := t.TempDir()
	optsA := mkOpts(dirA)
	rvA, err := NewResolver(NewTable(schema...), optsA)
	if err != nil {
		t.Fatal(err)
	}
	var lastA *Result
	for i := 0; i < batches; i++ {
		lastA = batch(rvA, i)
	}

	// Twin B: crash after delta three, recover, run the final delta.
	dirB := t.TempDir()
	optsB := mkOpts(dirB)
	rvB, err := NewResolver(NewTable(schema...), optsB)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < batches-1; i++ {
		batch(rvB, i)
	}
	statsBefore := rvB.HybridStats()
	if statsBefore.MachinePairs == 0 {
		t.Fatal("no machine verdicts before the crash; the round trip is vacuous")
	}
	optsB.Store.(*FileStore).Close()

	fl, rec, err := OpenStore(dirB, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ropts := optsB
	ropts.Store = fl
	restored, err := RestoreResolver(rec, ropts)
	if err != nil {
		t.Fatal(err)
	}
	statsAfter := restored.HybridStats()
	if statsAfter.MachinePairs != statsBefore.MachinePairs ||
		statsAfter.DeducedPairs != statsBefore.DeducedPairs ||
		statsAfter.SpentDollars != statsBefore.SpentDollars {
		t.Errorf("recovered stats %+v differ from pre-crash %+v", statsAfter, statsBefore)
	}

	lastB := batch(restored, batches-1)
	assertSameMatches(t, "crashed vs uncrashed", lastA.Matches, lastB.Matches)
	if lastB.HITs != lastA.HITs || lastB.MachinePairs != lastA.MachinePairs {
		t.Errorf("post-recovery delta (HITs=%d machine=%d) diverged from uncrashed twin (HITs=%d machine=%d)",
			lastB.HITs, lastB.MachinePairs, lastA.HITs, lastA.MachinePairs)
	}
	if a, b := rvA.HybridStats(), restored.HybridStats(); a != b {
		t.Errorf("final stats diverged: %+v vs %+v", a, b)
	}

	// Machine provenance survived the log — the restored cache knows
	// which pairs the model judged, so they are never re-asked.
	machine := 0
	for _, p := range restored.cache.Pairs() {
		if restored.cache.Get(p).Provenance == verdicts.Machine {
			machine++
		}
	}
	if want := restored.HybridStats().MachinePairs; machine != want {
		t.Errorf("restored cache holds %d machine entries; stats report %d", machine, want)
	}
}

// The budget search and the resolution consume the same learner state: a
// fresh session's learner is untrained either way, so PlanBudget's
// hybrid estimates equal the non-hybrid ones, and ResolveWithBudget
// threads its dollar budget into the router.
func TestResolveWithBudgetHybrid(t *testing.T) {
	rows, schema, oracle := resolverDataset(17, 300, 60)
	build := func() *Table {
		tab := NewTable(schema...)
		for _, r := range rows {
			tab.Append(r...)
		}
		return tab
	}
	base := BudgetOptions{
		Options: Options{
			HITType: PairHITs, ClusterSize: 10,
			Oracle: oracle, Seed: 1, SpammerRate: NoSpammers,
		},
		BudgetDollars: 20,
	}
	planOff, err := PlanBudget(build(), base)
	if err != nil {
		t.Fatal(err)
	}
	hyb := base
	hyb.Hybrid = HybridOn
	planOn, err := PlanBudget(build(), hyb)
	if err != nil {
		t.Fatal(err)
	}
	if planOn.Threshold != planOff.Threshold || len(planOn.Considered) != len(planOff.Considered) {
		t.Fatalf("hybrid budget search diverged: %+v vs %+v", planOn, planOff)
	}
	for i := range planOn.Considered {
		if planOn.Considered[i].Estimate != planOff.Considered[i].Estimate {
			t.Errorf("threshold %v: hybrid estimate %+v ≠ %+v",
				planOn.Considered[i].Threshold, planOn.Considered[i].Estimate, planOff.Considered[i].Estimate)
		}
	}
	res, plan, err := ResolveWithBudget(build(), hyb)
	if err != nil {
		t.Fatal(err)
	}
	if res.CostDollars > hyb.BudgetDollars {
		t.Errorf("spent $%v over the $%v budget", res.CostDollars, hyb.BudgetDollars)
	}
	// One-shot = one delta with an empty cache: the learner never
	// becomes ready, so nothing routes — exactly what the plan projected.
	if res.MachinePairs != 0 {
		t.Errorf("one-shot budgeted run machine-resolved %d pairs", res.MachinePairs)
	}
	if plan.Estimate.HITs != res.HITs {
		t.Errorf("plan projected %d HITs; run posted %d", plan.Estimate.HITs, res.HITs)
	}
}
