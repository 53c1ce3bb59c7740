package crowder

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/verdicts"
)

// productDupDataset builds the heavy-transitivity workload (the Product
// catalog with injected token-swap duplicates, the paper's Figure 15(b)
// dataset) in the public API's types.
func productDupDataset() ([][]string, []string, []Pair, record.PairSet) {
	d := dataset.ProductDup(2, dataset.Product(1))
	rows := make([][]string, d.Table.Len())
	for i := range d.Table.Records {
		row := make([]string, len(d.Table.Records[i].Values))
		copy(row, d.Table.Records[i].Values)
		rows[i] = row
	}
	var oracle []Pair
	for _, p := range d.Matches.Slice() {
		oracle = append(oracle, Pair{A: int(p.A), B: int(p.B)})
	}
	return rows, d.Table.Schema, oracle, d.Matches
}

func f1Against(truth record.PairSet, res *Result) float64 {
	tp, fp := 0, 0
	for _, m := range res.Accepted() {
		if truth.Has(record.ID(m.Pair.A), record.ID(m.Pair.B)) {
			tp++
		} else {
			fp++
		}
	}
	fn := truth.Len() - tp
	if tp == 0 {
		return 0
	}
	p := float64(tp) / float64(tp+fp)
	r := float64(tp) / float64(tp+fn)
	return 2 * p * r / (p + r)
}

// f1Against scores the equal-or-better-F1 gates, so it must not reward
// an empty answer or short-change a perfect one.
func TestTransitiveF1(t *testing.T) {
	truth := record.NewPairSet()
	truth.Add(0, 1)
	if got := f1Against(truth, &Result{}); got != 0 {
		t.Errorf("F1 with no accepted matches = %v; want 0", got)
	}
	perfect := &Result{Matches: []Match{{Pair: Pair{A: 0, B: 1}, Confidence: 0.9}}}
	if got := f1Against(truth, perfect); got != 1 {
		t.Errorf("perfect single-match F1 = %v; want 1", got)
	}
	wrong := &Result{Matches: []Match{{Pair: Pair{A: 0, B: 2}, Confidence: 0.9}}}
	if got := f1Against(truth, wrong); got != 0 {
		t.Errorf("F1 with only a false match = %v; want 0", got)
	}
}

// Tentpole acceptance: with Transitivity on, the adaptive scheduler
// posts strictly fewer HITs than the one-shot batching at equal-or-
// better F1, reports the savings, and never re-asks a deduced pair.
func TestTransitiveFewerHITsEqualOrBetterF1(t *testing.T) {
	rows, schema, oracle, truth := productDupDataset()
	base := Options{
		Threshold: 0.5, HITType: PairHITs, ClusterSize: 10,
		Oracle: oracle, Seed: 1,
	}

	build := func() *Table {
		tab := NewTable(schema...)
		for _, r := range rows {
			tab.Append(r...)
		}
		return tab
	}

	off, err := Resolve(build(), base)
	if err != nil {
		t.Fatal(err)
	}
	onOpts := base
	onOpts.Transitivity = TransitivityOn
	on, err := Resolve(build(), onOpts)
	if err != nil {
		t.Fatal(err)
	}

	if on.HITs >= off.HITs {
		t.Errorf("transitivity posted %d HITs; one-shot posted %d — no savings", on.HITs, off.HITs)
	}
	if on.DeducedPairs == 0 {
		t.Error("no pairs deduced on the heavy-transitivity workload")
	}
	if on.HITsSaved != off.HITs-on.HITs {
		t.Errorf("HITsSaved = %d; want baseline − posted = %d", on.HITsSaved, off.HITs-on.HITs)
	}
	if on.CostDollars >= off.CostDollars {
		t.Errorf("transitive cost $%v not below one-shot $%v", on.CostDollars, off.CostDollars)
	}
	// Every candidate is still judged — asked or deduced.
	if on.Candidates != off.Candidates {
		t.Errorf("transitive judged %d candidates; one-shot judged %d", on.Candidates, off.Candidates)
	}
	offF1, onF1 := f1Against(truth, off), f1Against(truth, on)
	if onF1 < offF1 {
		t.Errorf("transitive F1 %.4f below one-shot %.4f", onF1, offF1)
	}
	if off.DeducedPairs != 0 || off.HITsSaved != 0 || off.RetractedHITs != 0 {
		t.Errorf("one-shot run reports transitive work: %+v", off)
	}
}

// With Transitivity off the resolution never touches the deduction
// machinery: zero-value Options select TransitivityOff, and the off-mode
// result carries no transitive accounting. (Bit-identity of off-mode
// across parallelism levels is asserted by
// TestTransitiveParallelismInvariance and the pre-existing
// TestResolveParallelismInvariance.)
func TestTransitivityOffIsDefault(t *testing.T) {
	if TransitivityOff != 0 {
		t.Fatal("TransitivityOff must be the zero value")
	}
	tab, oracle := paperTable()
	res, err := Resolve(tab, Options{Threshold: 0.3, Oracle: oracle, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.DeducedPairs != 0 || res.HITsSaved != 0 || res.RetractedHITs != 0 {
		t.Errorf("default resolve reports transitive work: deduced=%d saved=%d retracted=%d",
			res.DeducedPairs, res.HITsSaved, res.RetractedHITs)
	}
}

// Acceptance: transitive resolution is bit-identical at every
// parallelism level, off and on — the adaptive rounds consume the
// simulator's virtual-clock stream, which is deterministic regardless of
// how many goroutines simulate assignments.
func TestTransitiveParallelismInvariance(t *testing.T) {
	rows, schema, oracle := resolverDataset(11, 400, 80)
	for _, mode := range []TransitivityMode{TransitivityOff, TransitivityOn} {
		var ref *Result
		for _, par := range []int{1, 2, 8} {
			tab := NewTable(schema...)
			for _, r := range rows {
				tab.Append(r...)
			}
			res, err := Resolve(tab, Options{
				Threshold: 0.4, HITType: PairHITs, ClusterSize: 10,
				Oracle: oracle, Seed: 1, Parallelism: par, Transitivity: mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			if ref == nil {
				ref = res
				continue
			}
			assertSameMatches(t, "matches", ref.Matches, res.Matches)
			if res.HITs != ref.HITs || res.DeducedPairs != ref.DeducedPairs ||
				res.RetractedHITs != ref.RetractedHITs || res.CostDollars != ref.CostDollars {
				t.Errorf("mode %d parallelism %d: work accounting differs: %+v vs %+v", mode, par, res, ref)
			}
		}
	}
}

// assertSameCache compares two sessions' verdict caches entry by entry:
// same pairs, same provenance, same posteriors and likelihoods, same raw
// answers and — for deduced pairs — identical proofs (path, witness,
// polarity). Not just the same matches, but the same evidence.
func assertSameCache(t *testing.T, label string, want, got *verdicts.Cache) {
	t.Helper()
	wantPairs, gotPairs := want.Pairs(), got.Pairs()
	if !reflect.DeepEqual(wantPairs, gotPairs) {
		t.Fatalf("%s: cache holds %d pairs, want %d", label, len(gotPairs), len(wantPairs))
	}
	if want.DeducedLen() != got.DeducedLen() {
		t.Fatalf("%s: %d deduced pairs, want %d", label, got.DeducedLen(), want.DeducedLen())
	}
	for _, p := range wantPairs {
		we, ge := want.Get(p), got.Get(p)
		if we.Provenance != ge.Provenance {
			t.Fatalf("%s: pair %v is %v, want %v", label, p, ge.Provenance, we.Provenance)
		}
		if we.Posterior != ge.Posterior || we.Likelihood != ge.Likelihood {
			t.Fatalf("%s: pair %v posterior/likelihood %v/%v, want %v/%v",
				label, p, ge.Posterior, ge.Likelihood, we.Posterior, we.Likelihood)
		}
		if !reflect.DeepEqual(we.Answers, ge.Answers) {
			t.Fatalf("%s: pair %v answers differ", label, p)
		}
		if !reflect.DeepEqual(we.Deduction, ge.Deduction) {
			t.Fatalf("%s: pair %v proof differs:\n got %+v\nwant %+v",
				label, p, ge.Deduction, we.Deduction)
		}
	}
}

// Acceptance: k-batch ResolveDelta with transitivity equals from-scratch
// resolution with transitivity. On the heavy-transitivity workload with a
// clean pool the Matches are bit-identical, and so is the verdict cache
// behind them: provenance, posteriors, answers and deduction proofs.
// Product+Dup's duplicate cliques make a large share of the compared
// verdicts transitive deductions, so the proof comparison is not vacuous.
func TestTransitiveDeltaEqualsFromScratch(t *testing.T) {
	rows, schema, oracle, _ := productDupDataset()
	opts := Options{
		Threshold: 0.5, HITType: PairHITs, ClusterSize: 10,
		Oracle: oracle, Seed: 1, Transitivity: TransitivityOn,
		SpammerRate: NoSpammers,
	}

	session := func(batches int) (*Resolver, *Result) {
		rv, err := NewResolver(NewTable(schema...), opts)
		if err != nil {
			t.Fatal(err)
		}
		size := (len(rows) + batches - 1) / batches
		var last *Result
		for lo := 0; lo < len(rows); lo += size {
			rv.AppendBatch(rows[lo:min(lo+size, len(rows))]...)
			if last, err = rv.ResolveDelta(); err != nil {
				t.Fatal(err)
			}
		}
		return rv, last
	}

	scratch, full := session(1)
	if full.DeducedPairs == 0 {
		t.Fatal("scratch resolution deduced nothing; the proof comparison is vacuous")
	}
	for _, batches := range []int{2, 3, 4} {
		t.Run(fmt.Sprintf("batches=%d", batches), func(t *testing.T) {
			rv, last := session(batches)
			assertSameMatches(t, "k-batch vs scratch", full.Matches, last.Matches)
			if last.Candidates != full.Candidates {
				t.Errorf("%d-batch judged %d candidates; scratch judged %d", batches, last.Candidates, full.Candidates)
			}
			assertSameCache(t, "k-batch vs scratch", scratch.cache, rv.cache)
		})
	}
}

// A delta whose pairs are all implied by cached verdicts issues no HITs
// at all: deduction carries across ResolveDelta calls, and deduced
// verdicts persist with provenance so they are never re-asked.
func TestTransitiveDeltaDeducesFromCache(t *testing.T) {
	// Three near-identical records resolved in full, then a fourth copy
	// appended: its three candidate pairs are implied by the existing
	// cluster (two spanning asks suffice; transitivity fills the rest).
	opts := Options{
		Threshold: 0.3, HITType: PairHITs, ClusterSize: 1, Assignments: 3,
		Oracle: []Pair{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 3}, {2, 3}},
		// Seed 1 yields unanimous replicas for every asked pair (a clean
		// pool still has a small residual slip rate; a slip would simply
		// demote a deduction to an ask, which is not what this test is
		// about).
		Seed: 1, Transitivity: TransitivityOn, SpammerRate: NoSpammers,
	}
	rv, err := NewResolver(NewTable("name"), opts)
	if err != nil {
		t.Fatal(err)
	}
	// Token permutations of one record: similarity 1, so the simulated
	// workers judge them trivially (difficulty 0) and unanimously —
	// exactly the strong evidence deduction proofs require.
	rv.AppendBatch(
		[]string{"apple ipad two 16gb wifi white"},
		[]string{"apple ipad two 16gb white wifi"},
		[]string{"ipad two 16gb wifi white apple"},
	)
	first, err := rv.ResolveDelta()
	if err != nil {
		t.Fatal(err)
	}
	// ClusterSize 1 ⇒ one pair per HIT: the 3-cycle needs only its
	// spanning edges asked; the third pair is deduced.
	if first.HITs != 2 || first.DeducedPairs != 1 {
		t.Fatalf("first delta: HITs=%d deduced=%d; want 2 asked + 1 deduced", first.HITs, first.DeducedPairs)
	}

	rv.Append("white wifi apple ipad two 16gb")
	second, err := rv.ResolveDelta()
	if err != nil {
		t.Fatal(err)
	}
	// The new record pairs with all three cluster members: one ask links
	// it into the cluster, the other two pairs are deduced.
	if second.NewCandidates != 3 {
		t.Fatalf("second delta found %d new candidates; want 3", second.NewCandidates)
	}
	if second.HITs != 1 || second.DeducedPairs != 2 {
		t.Errorf("second delta: HITs=%d deduced=%d; want 1 asked + 2 deduced", second.HITs, second.DeducedPairs)
	}
	// All six pairs are judged and accepted; deduced ones carry proof.
	if rv.JudgedPairs() != 6 {
		t.Errorf("JudgedPairs = %d; want 6", rv.JudgedPairs())
	}
	for _, p := range opts.Oracle {
		conf, ok := rv.Verdict(p)
		if !ok || conf < 0.5 {
			t.Errorf("pair %v: conf=%v ok=%v; want accepted", p, conf, ok)
		}
	}
	deduced := 0
	for _, p := range rv.cache.Pairs() {
		e := rv.cache.Get(p)
		if e.Provenance == verdicts.Deduced {
			deduced++
			if e.Deduction == nil || len(e.Deduction.Path) == 0 {
				t.Errorf("deduced entry %v has no proof", p)
			}
		}
	}
	if deduced != 3 {
		t.Errorf("cache holds %d deduced entries; want 3", deduced)
	}
}

// Cluster-based HITs with transitivity: a one-shot resolution posts the
// identical one-shot packing (cluster HITs already close transitivity
// within each group, and fragmenting the packing would cost HITs), so
// the result matches the off-mode run exactly on a workload where
// nothing is retracted mid-flight.
func TestTransitiveClusterOneShotParity(t *testing.T) {
	rows, schema, oracle := resolverDataset(5, 300, 60)
	base := Options{
		Threshold: 0.4, HITType: ClusterHITs, ClusterSize: 10,
		Oracle: oracle, Seed: 1,
	}
	build := func() *Table {
		tab := NewTable(schema...)
		for _, r := range rows {
			tab.Append(r...)
		}
		return tab
	}
	off, err := Resolve(build(), base)
	if err != nil {
		t.Fatal(err)
	}
	onOpts := base
	onOpts.Transitivity = TransitivityOn
	on, err := Resolve(build(), onOpts)
	if err != nil {
		t.Fatal(err)
	}
	if on.HITs != off.HITs {
		t.Errorf("cluster one-shot: %d HITs on vs %d off; want identical packing", on.HITs, off.HITs)
	}
	if on.RetractedHITs == 0 {
		assertSameMatches(t, "cluster parity", off.Matches, on.Matches)
	}
}

// EstimateCost under transitivity reports the one-shot batching: the
// savings depend on crowd answers no estimate can know, so the estimate
// stays the workload's upper bound.
func TestTransitiveEstimateIsOneShot(t *testing.T) {
	tab, oracle := paperTable()
	off, err := EstimateCost(tab, Options{Threshold: 0.3, Oracle: oracle, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	tab2, _ := paperTable()
	on, err := EstimateCost(tab2, Options{Threshold: 0.3, Oracle: oracle, Seed: 1, Transitivity: TransitivityOn})
	if err != nil {
		t.Fatal(err)
	}
	if *on != *off {
		t.Errorf("transitive estimate %+v differs from one-shot %+v", on, off)
	}
}

// postRecorder is a Backend that records every posting before passing it
// on to the wrapped crowd.
type postRecorder struct {
	Backend
	posts [][]HIT
}

func (b *postRecorder) Post(ctx context.Context, hits []HIT) error {
	b.posts = append(b.posts, append([]HIT(nil), hits...))
	return b.Backend.Post(ctx, hits)
}

// newTestSimulator returns the reference simulator over the oracle, as a
// caller-supplied Backend.
func newTestSimulator(t *testing.T, oracle []Pair) Backend {
	t.Helper()
	truth := record.NewPairSet()
	for _, p := range oracle {
		truth.Add(record.ID(p.A), record.ID(p.B))
	}
	sim, err := crowd.NewSimulator(truth, crowd.NewPopulation(1, crowd.PopulationOptions{}), crowd.Config{Assignments: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// With Transitivity off the execute stage is exactly one round of the
// adaptive executor: each delta makes one Post carrying every HIT the
// estimate projects, with dense ordinals from zero.
func TestTransitivityOffPostsOneRound(t *testing.T) {
	for _, ht := range []HITType{ClusterHITs, PairHITs} {
		t.Run(fmt.Sprintf("hit-type=%d", ht), func(t *testing.T) {
			tab, oracle := paperTable()
			rec := &postRecorder{Backend: newTestSimulator(t, oracle)}
			opts := Options{Threshold: 0.3, ClusterSize: 4, HITType: ht, Seed: 1, Backend: rec}
			est, err := EstimateCost(tab, opts)
			if err != nil {
				t.Fatal(err)
			}
			if est.HITs < 2 {
				t.Fatalf("estimate projects %d HITs; the check needs several", est.HITs)
			}
			rv, err := NewResolver(tab, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := rv.ResolveDelta()
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.posts) != 1 {
				t.Fatalf("delta posted %d times; want one round", len(rec.posts))
			}
			hits := rec.posts[0]
			if len(hits) != est.HITs || res.HITs != est.HITs || res.HITsSaved != 0 {
				t.Errorf("posted %d HITs, result %d (saved %d); estimate %d", len(hits), res.HITs, res.HITsSaved, est.HITs)
			}
			for i, h := range hits {
				if h.Ord != i {
					t.Errorf("HIT %d has ordinal %d; want %d", i, h.Ord, i)
				}
			}
		})
	}
}
