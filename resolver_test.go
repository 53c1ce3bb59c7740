package crowder

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/learn"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/verdicts"
)

// resolverDataset builds a crowdable synthetic dataset plus its oracle in
// the public API's types.
func resolverDataset(seed int64, records, dups int) ([][]string, []string, []Pair) {
	d := dataset.RestaurantN(seed, records, dups)
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
	return rows, d.Table.Schema, oracle
}

func assertSameMatches(t *testing.T, label string, want, got []Match) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: %d matches vs %d", label, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: match %d differs: %+v vs %+v", label, i, got[i], want[i])
		}
	}
}

// assertMatchesRankCache is the ranking oracle: the matches are the
// cache's verdicts — entries holding answers, and every entry not asked —
// each pair once, sorted with SortMatches.
func assertMatchesRankCache(t *testing.T, label string, rv *Resolver, got []Match) {
	t.Helper()
	var want []Match
	for e := range rv.cache.Entries() {
		if len(e.Answers) > 0 || e.Provenance != verdicts.Asked {
			want = append(want, Match{Pair: Pair{A: int(e.Pair.A), B: int(e.Pair.B)}, Confidence: e.Posterior})
		}
	}
	SortMatches(want)
	seen := make(map[Pair]bool, len(got))
	for _, m := range got {
		if seen[m.Pair] {
			t.Fatalf("%s: pair %v ranked twice", label, m.Pair)
		}
		seen[m.Pair] = true
	}
	assertSameMatches(t, label, want, got)
}

// Acceptance: resolving k delta batches incrementally produces
// bit-identical Matches to a from-scratch Resolve of the union table, at
// every parallelism level. Pair-based HITs make crowd verdicts a pure
// function of (Seed, pair), so re-batching across deltas cannot change
// any judgment. Run with -race: ResolveDelta spreads the join probe and
// the crowd execution across goroutines.
func TestResolveDeltaEquivalentToFromScratch(t *testing.T) {
	rows, schema, oracle := resolverDataset(11, 240, 40)
	batches := [][][]string{rows[:100], rows[100:140], rows[140:141], rows[141:]}

	for _, par := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			opts := Options{
				Threshold:   0.4,
				HITType:     PairHITs,
				ClusterSize: 5,
				Oracle:      oracle,
				Seed:        7,
				Parallelism: par,
			}

			union := NewTable(schema...)
			for _, row := range rows {
				union.Append(row...)
			}
			want, err := Resolve(union, opts)
			if err != nil {
				t.Fatal(err)
			}

			rv, err := NewResolver(NewTable(schema...), opts)
			if err != nil {
				t.Fatal(err)
			}
			var got *Result
			totalHITs, totalCost := 0, 0.0
			for _, batch := range batches {
				rv.AppendBatch(batch...)
				got, err = rv.ResolveDelta()
				if err != nil {
					t.Fatal(err)
				}
				totalHITs += got.HITs
				totalCost += got.CostDollars
			}

			assertSameMatches(t, "session", want.Matches, got.Matches)
			if got.Candidates != want.Candidates {
				t.Fatalf("session candidates %d vs from-scratch %d", got.Candidates, want.Candidates)
			}
			if got.TotalPairs != want.TotalPairs {
				t.Fatalf("TotalPairs %d vs %d", got.TotalPairs, want.TotalPairs)
			}
			// Every candidate pair was judged exactly once across the deltas:
			// the session's total crowd spend covers the same pairs the batch
			// run paid for (HIT packing differs, pair coverage must not).
			if totalHITs == 0 || totalCost <= 0 {
				t.Fatal("incremental session did no crowd work")
			}
		})
	}
}

// Machine-only deltas must likewise reproduce the from-scratch likelihood
// ranking bit-for-bit.
func TestResolveDeltaMachineOnlyEquivalence(t *testing.T) {
	rows, schema, _ := resolverDataset(3, 180, 30)
	opts := Options{Threshold: 0.3, MachineOnly: true}

	union := NewTable(schema...)
	for _, row := range rows {
		union.Append(row...)
	}
	want, err := Resolve(union, opts)
	if err != nil {
		t.Fatal(err)
	}

	rv, err := NewResolver(NewTable(schema...), opts)
	if err != nil {
		t.Fatal(err)
	}
	var got *Result
	for _, batch := range [][][]string{rows[:60], rows[60:61], rows[61:]} {
		rv.AppendBatch(batch...)
		if got, err = rv.ResolveDelta(); err != nil {
			t.Fatal(err)
		}
	}
	assertSameMatches(t, "machine-only", want.Matches, got.Matches)
}

// Acceptance: a delta that introduces no new candidate pairs issues zero
// HITs and costs nothing — the verdict cache answers everything.
func TestResolveDeltaNoNewCandidatesIssuesNoHITs(t *testing.T) {
	rows, schema, oracle := resolverDataset(5, 120, 20)
	opts := Options{Threshold: 0.4, HITType: PairHITs, Oracle: oracle, Seed: 2}
	rv, err := NewResolver(NewTable(schema...), opts)
	if err != nil {
		t.Fatal(err)
	}
	rv.AppendBatch(rows...)
	first, err := rv.ResolveDelta()
	if err != nil {
		t.Fatal(err)
	}
	if first.HITs == 0 {
		t.Fatal("setup: initial resolve generated no HITs")
	}

	// No appends at all: pure re-aggregation.
	again, err := rv.ResolveDelta()
	if err != nil {
		t.Fatal(err)
	}
	if again.HITs != 0 || again.CostDollars != 0 || again.NewCandidates != 0 {
		t.Fatalf("idle delta did crowd work: %d HITs, $%v, %d new candidates",
			again.HITs, again.CostDollars, again.NewCandidates)
	}
	if again.CachedCandidates != first.Candidates {
		t.Fatalf("CachedCandidates = %d; want %d", again.CachedCandidates, first.Candidates)
	}
	assertSameMatches(t, "idle delta", first.Matches, again.Matches)

	// A delta whose records share no tokens with anything: no candidate
	// pairs survive the threshold, so still zero HITs.
	rv.Append("zzzqx vvwpt", "qqaby", "krrgl", "xx")
	disjoint, err := rv.ResolveDelta()
	if err != nil {
		t.Fatal(err)
	}
	if disjoint.HITs != 0 || disjoint.NewCandidates != 0 {
		t.Fatalf("disjoint delta issued %d HITs for %d new candidates", disjoint.HITs, disjoint.NewCandidates)
	}
	assertSameMatches(t, "disjoint delta", first.Matches, disjoint.Matches)
}

// The delta accounting must tie out: Candidates = New + Cached, and a
// pair judged in batch i is cached (never re-issued) in batch j > i.
func TestResolveDeltaAccounting(t *testing.T) {
	rows, schema, oracle := resolverDataset(9, 160, 30)
	opts := Options{Threshold: 0.4, HITType: PairHITs, Oracle: oracle, Seed: 4}
	rv, err := NewResolver(NewTable(schema...), opts)
	if err != nil {
		t.Fatal(err)
	}
	judged := 0
	for _, batch := range [][][]string{rows[:80], rows[80:]} {
		rv.AppendBatch(batch...)
		res, err := rv.ResolveDelta()
		if err != nil {
			t.Fatal(err)
		}
		if res.Candidates != res.NewCandidates+res.CachedCandidates {
			t.Fatalf("accounting broken: %d != %d + %d", res.Candidates, res.NewCandidates, res.CachedCandidates)
		}
		if res.CachedCandidates != judged {
			t.Fatalf("CachedCandidates = %d; want %d (pairs judged so far)", res.CachedCandidates, judged)
		}
		judged += res.NewCandidates
		if rv.JudgedPairs() != judged {
			t.Fatalf("JudgedPairs = %d; want %d", rv.JudgedPairs(), judged)
		}
	}
}

func TestResolverVerdictAccess(t *testing.T) {
	tab, oracle := paperTable()
	rv, err := NewResolver(tab, Options{Threshold: 0.3, ClusterSize: 4, Oracle: oracle, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := rv.ResolveDelta()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Matches {
		conf, ok := rv.Verdict(m.Pair)
		if !ok || conf != m.Confidence {
			t.Fatalf("Verdict(%v) = %v, %v; want %v, true", m.Pair, conf, ok, m.Confidence)
		}
	}
	if _, ok := rv.Verdict(Pair{A: 4, B: 8}); ok {
		t.Error("unjudged pair should not have a verdict")
	}
	assertMatchesRankCache(t, "cluster HITs", rv, res.Matches)
	if rv.PendingPairs() != 0 {
		t.Errorf("PendingPairs = %d after a clean resolve; want 0", rv.PendingPairs())
	}
}

// downBackend is a crowd that refuses every posting.
type downBackend struct{}

func (downBackend) Post(context.Context, []HIT) error         { return errors.New("crowd unavailable") }
func (downBackend) Collect(context.Context) <-chan Assignment { return nil }

// A failed delta must not lose discovered candidates: they stay pending
// for the next attempt.
func TestResolverFailedDeltaKeepsPending(t *testing.T) {
	tab, _ := paperTable()
	rv, err := NewResolver(tab, Options{Threshold: 0.3, Backend: downBackend{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rv.ResolveDelta(); err == nil || !strings.Contains(err.Error(), "crowd unavailable") {
		t.Fatalf("a crowd refusing every posting should fail the delta, got %v", err)
	}
	if rv.PendingPairs() == 0 {
		t.Error("failed delta should leave its candidates pending")
	}
	if rv.JudgedPairs() != 0 {
		t.Error("failed delta must not mark pairs judged")
	}
}

func TestResolverAppendAccessors(t *testing.T) {
	rv, err := NewResolver(NewTable("name", "price"), Options{MachineOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rv.ResolveDelta(); err == nil {
		t.Error("empty resolver should error on ResolveDelta")
	}
	if id := rv.Append("ipad 2", "$499"); id != 0 {
		t.Errorf("first Append ID = %d; want 0", id)
	}
	if first := rv.AppendBatch([]string{"ipad two", "$490"}, []string{"ipod", "$49"}); first != 1 {
		t.Errorf("AppendBatch first ID = %d; want 1", first)
	}
	if rv.Len() != 3 {
		t.Errorf("Len = %d; want 3", rv.Len())
	}
	if got := rv.Record(1); len(got) != 2 || got[0] != "ipad two" {
		t.Errorf("Record(1) = %v", got)
	}
	if _, err := rv.ResolveDelta(); err != nil {
		t.Fatal(err)
	}
	if _, err := NewResolver(nil, Options{}); err == nil {
		t.Error("nil table should error")
	}
}

// Cross-source sessions: the delta join honors CrossSourceOnly and the
// fixed TotalPairs accounting handles arbitrary tag values and 3+
// sources.
func TestResolveCrossSourceUniverse(t *testing.T) {
	tab := NewTable("name")
	tab.AppendFrom(3, "apple ipod touch 8gb")
	tab.AppendFrom(3, "apple ipod touch 8gb black")
	tab.AppendFrom(7, "apple ipod touch 8gb 2nd gen")
	tab.AppendFrom(9, "apple ipod nano 4gb")
	res, err := Resolve(tab, Options{Threshold: 0.1, CrossSourceOnly: true, MachineOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	// Sources {3:2, 7:1, 9:1}: cross pairs = 2·1 + 2·1 + 1·1 = 5.
	if res.TotalPairs != 5 {
		t.Errorf("TotalPairs = %d; want 5", res.TotalPairs)
	}
	for _, m := range res.Matches {
		if m.Pair.A < 2 && m.Pair.B < 2 {
			t.Errorf("same-source pair leaked: %v", m.Pair)
		}
	}
}

// A record appended without a source after tagged ones counts as source
// 0 under CrossSourceOnly; the join used to index past the end of the
// source tags and panic.
func TestResolveCrossSourceUntaggedAppend(t *testing.T) {
	tab := NewTable("name")
	tab.AppendFrom(0, "apple ipod touch 8gb")
	tab.AppendFrom(1, "apple ipod touch 8gb black")
	tab.Append("apple ipod touch 8gb 2nd gen")
	res, err := Resolve(tab, Options{Threshold: 0.1, CrossSourceOnly: true, MachineOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	// Sources {0:2, 1:1}: cross pairs (0,1) and (1,2).
	if res.TotalPairs != 2 || res.Candidates != 2 {
		t.Errorf("TotalPairs = %d, Candidates = %d; want 2 and 2", res.TotalPairs, res.Candidates)
	}
	for _, m := range res.Matches {
		if m.Pair == (Pair{0, 2}) {
			t.Errorf("same-source pair leaked: %v", m.Pair)
		}
	}
}

func TestNoSpammersOption(t *testing.T) {
	tab, oracle := paperTable()
	clean, err := Resolve(tab, Options{Threshold: 0.3, Oracle: oracle, Seed: 1, SpammerRate: NoSpammers})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Matches) == 0 {
		t.Fatal("clean-pool resolve produced no matches")
	}
	// The sentinel must reach the population: a clean pool answers the
	// easy iPad trio correctly with high confidence.
	acc := map[Pair]bool{}
	for _, m := range clean.Accepted() {
		acc[m.Pair] = true
	}
	if !acc[Pair{0, 1}] || !acc[Pair{0, 6}] || !acc[Pair{1, 6}] {
		t.Errorf("clean pool missed the iPad trio: %v", clean.Accepted())
	}
}

// Satellite: invalid option values must fail loudly through the shared
// validation path used by Resolve, NewResolver and EstimateCost — they
// previously fell through to defaults or misbehaved silently. Table-
// driven over every rejection branch of Options.validate(), asserting
// the error names the offending field and value so a caller can fix
// their configuration from the message alone.
func TestOptionsValidation(t *testing.T) {
	tab, _ := paperTable()
	cases := []struct {
		name    string
		opts    Options
		wantErr string // substring of the expected error; "" = accepted
	}{
		{"negative workers", Options{Workers: -1, MachineOnly: true}, "Options.Workers = -1"},
		{"negative assignments", Options{Assignments: -3, MachineOnly: true}, "Options.Assignments = -3"},
		{"negative cluster size", Options{ClusterSize: -10, MachineOnly: true}, "Options.ClusterSize = -10"},
		{"threshold below zero", Options{Threshold: -0.5, MachineOnly: true}, "Options.Threshold = -0.5"},
		{"threshold above one", Options{Threshold: 1.5, MachineOnly: true}, "Options.Threshold = 1.5"},
		{"negative parallelism", Options{Parallelism: -2, MachineOnly: true}, "Options.Parallelism = -2"},
		{"negative transitivity", Options{Transitivity: -1, MachineOnly: true}, "Options.Transitivity = -1"},
		{"unknown transitivity mode", Options{Transitivity: 2, MachineOnly: true}, "Options.Transitivity = 2"},
		{"negative aggregation", Options{Aggregation: -1, MachineOnly: true}, "Options.Aggregation = -1"},
		{"unknown aggregation mode", Options{Aggregation: 3, MachineOnly: true}, "Options.Aggregation = 3"},
		{"negative max candidates", Options{MaxCandidates: -5, MachineOnly: true}, "Options.MaxCandidates = -5"},
		{"unknown generator", Options{Generator: 9, MachineOnly: true}, "Options.Generator = 9"},
		{"negative generator", Options{Generator: -1, MachineOnly: true}, "Options.Generator = -1"},
		{"unknown HIT type", Options{HITType: 7, MachineOnly: true}, "Options.HITType = 7"},
		{"negative HIT type", Options{HITType: -1, MachineOnly: true}, "Options.HITType = -1"},
		{"spammer rate above one", Options{SpammerRate: 5, MachineOnly: true}, "Options.SpammerRate = 5"},
		{"pool below default replication", Options{Workers: 2, Oracle: []Pair{}}, "Options.Workers = 2 (defaulted) is below Options.Assignments = 3"},
		{"default pool below replication", Options{Assignments: 121, Oracle: []Pair{}}, "Options.Workers = 120 (defaulted) is below Options.Assignments = 121"},
		{"negative hybrid", Options{Hybrid: -1, MachineOnly: true}, "Options.Hybrid = -1"},
		{"unknown hybrid mode", Options{Hybrid: 2, MachineOnly: true}, "Options.Hybrid = 2"},
		{"negative hybrid risk", Options{HybridRisk: -0.1, MachineOnly: true}, "Options.HybridRisk = -0.1"},
		{"hybrid risk above the cap", Options{HybridRisk: 0.5, MachineOnly: true}, "Options.HybridRisk = 0.5"},
		{"negative hybrid min labels", Options{HybridMinLabels: -4, MachineOnly: true}, "Options.HybridMinLabels = -4"},
		{"negative hybrid budget", Options{HybridBudgetDollars: -1.5, MachineOnly: true}, "Options.HybridBudgetDollars = -1.5"},

		{"zero values select defaults", Options{MachineOnly: true}, ""},
		{"zero max candidates keeps everything", Options{MaxCandidates: 0, MachineOnly: true}, ""},
		{"random generator is valid", Options{Generator: GenRandom, MachineOnly: true}, ""},
		{"bfs generator is valid", Options{Generator: GenBFS, MachineOnly: true}, ""},
		{"dfs generator is valid", Options{Generator: GenDFS, MachineOnly: true}, ""},
		{"approx generator is valid", Options{Generator: GenApprox, MachineOnly: true}, ""},
		{"hybrid on is valid", Options{Hybrid: HybridOn, MachineOnly: true}, ""},
		{"hybrid risk cap is inclusive", Options{HybridRisk: learn.MaxRisk, MachineOnly: true}, ""},
		{"transitivity off is valid", Options{Transitivity: TransitivityOff, MachineOnly: true}, ""},
		{"transitivity on is valid", Options{Transitivity: TransitivityOn, MachineOnly: true}, ""},
		{"majority-vote aggregation is valid", Options{Aggregation: AggregationMajorityVote, MachineOnly: true}, ""},
		{"dawid-skene-map aggregation is valid", Options{Aggregation: AggregationDawidSkeneMAP, MachineOnly: true}, ""},
		{"no-spammers sentinel is valid", Options{SpammerRate: NoSpammers, MachineOnly: true}, ""},
		{"threshold bounds are inclusive", Options{Threshold: 1, MachineOnly: true}, ""},
		{"pair HITs are valid", Options{HITType: PairHITs, MachineOnly: true}, ""},
		{"all-spammer pool is valid", Options{SpammerRate: 1, MachineOnly: true}, ""},
		{"pool of one worker per replica is valid", Options{Workers: 3, Oracle: []Pair{}}, ""},
		{"small pool without the simulator is valid", Options{Workers: 2, MachineOnly: true}, ""},
		{"small pool behind a caller's backend is valid", Options{Workers: 2, Backend: newTestSimulator(t, nil)}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			check := func(api string, err error) {
				t.Helper()
				if tc.wantErr == "" {
					if err != nil {
						t.Errorf("%s rejected valid options: %v", api, err)
					}
					return
				}
				if err == nil {
					t.Errorf("%s accepted invalid options %+v", api, tc.opts)
				} else if !strings.Contains(err.Error(), tc.wantErr) {
					t.Errorf("%s error %q does not name the offending value %q", api, err, tc.wantErr)
				}
			}
			// All three entry points share one validation path; each must
			// reject identically.
			_, err := Resolve(tab, tc.opts)
			check("Resolve", err)
			_, err = NewResolver(tab, tc.opts)
			check("NewResolver", err)
			_, err = EstimateCost(tab, tc.opts)
			check("EstimateCost", err)
		})
	}
}

// Satellite: cancelling a delta mid-execute leaves the discovered
// candidates pending (the failed-delta contract) and persists the
// answers already collected as partial assignment sets; the next delta
// retries cleanly.
func TestResolveDeltaContextCancellation(t *testing.T) {
	tab, oracle := paperTable()
	truth := map[Pair]bool{}
	for _, p := range oracle {
		truth[p] = true
	}
	q := NewQueueBackend(QueueOptions{})
	opts := Options{
		Threshold:   0.3,
		HITType:     PairHITs,
		ClusterSize: 2,
		Assignments: 1,
		Seed:        1,
		Backend:     q,
	}
	rv, err := NewResolver(tab, opts)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	firstComplete := make(chan struct{})
	var once sync.Once
	rv.opts.Progress = func(p Progress) {
		if p.CompletedHITs >= 1 {
			once.Do(func() { close(firstComplete) })
		}
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := rv.ResolveDeltaContext(ctx)
		errCh <- err
	}()

	answer := func(worker string) bool {
		c, ok := q.Claim(worker)
		if !ok {
			return false
		}
		var vs []Verdict
		for _, p := range c.HIT.Pairs {
			vs = append(vs, Verdict{A: record.ID(p.A), B: record.ID(p.B), Match: truth[Pair{A: int(p.A), B: int(p.B)}]})
		}
		if err := q.Answer(c.Token, vs); err != nil {
			t.Error(err)
		}
		return true
	}

	// Answer exactly one HIT, wait for the engine to absorb it, cancel.
	deadline := time.Now().Add(5 * time.Second)
	for !answer("w0") {
		if time.Now().After(deadline) {
			t.Fatal("no HIT became claimable")
		}
		time.Sleep(time.Millisecond)
	}
	<-firstComplete
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled delta returned %v; want context.Canceled", err)
	}

	// The failed-delta contract: candidates pending, nothing judged, the
	// completed HIT's answers persisted as partial assignment sets.
	if rv.PendingPairs() == 0 {
		t.Error("cancelled delta should leave its candidates pending")
	}
	if rv.JudgedPairs() != 0 {
		t.Error("cancelled delta must not mark pairs judged")
	}
	if rv.PartialPairs() == 0 {
		t.Error("answers collected before cancellation should persist as partial sets")
	}

	// Retry: the next delta re-discovers the pending pairs and completes
	// once workers drain the queue.
	rv.opts.Progress = nil
	resCh := make(chan *Result, 1)
	go func() {
		res, err := rv.ResolveDelta()
		if err != nil {
			t.Error(err)
		}
		resCh <- res
	}()
	var res *Result
	worker := 0
	for res == nil {
		if time.Now().After(deadline) {
			t.Fatal("retry never completed")
		}
		if !answer(fmt.Sprintf("w%d", worker%3)) {
			time.Sleep(time.Millisecond)
		}
		worker++
		select {
		case res = <-resCh:
		default:
		}
	}
	if rv.PendingPairs() != 0 || rv.PartialPairs() != 0 {
		t.Errorf("retry should clear pending (%d) and partial (%d) state", rv.PendingPairs(), rv.PartialPairs())
	}
	if rv.JudgedPairs() == 0 || len(res.Accepted()) == 0 {
		t.Fatal("retry resolved nothing")
	}
	// Truthful workers recover the oracle's matches among candidates.
	acc := map[Pair]bool{}
	for _, m := range res.Accepted() {
		acc[m.Pair] = true
	}
	if !acc[Pair{0, 1}] || !acc[Pair{0, 6}] || !acc[Pair{1, 6}] {
		t.Errorf("iPad trio not recovered by queue workers: %v", res.Accepted())
	}
}

// Session reads proceed during a resolve. A queue-backed resolution
// blocks on the crowd; while it waits, Verdict, JudgedPairs,
// WorkerStats, HybridStats, PendingPairs, Record and Len must all answer
// from the shared lock instead of queueing behind the job. The hybrid
// subtest resolves two deltas, so the second one routes and retrains
// while two readers run side by side: every read method must be a pure
// read, since readers share the lock with each other. Run under -race
// (CI does): the assertions here are secondary to the interleaving
// itself.
func TestResolverReadsDuringResolve(t *testing.T) {
	t.Run("transitive", func(t *testing.T) { readsDuringResolve(t, HybridOff, 1) })
	t.Run("hybrid", func(t *testing.T) { readsDuringResolve(t, HybridOn, 2) })
}

func readsDuringResolve(t *testing.T, hybrid HybridMode, deltas int) {
	rows, schema, oracle := resolverDataset(7, 120, 24)
	if deltas > 1 {
		// Spread the duplicates over the deltas: the unshuffled dataset
		// appends them last, and the first delta must see both classes.
		rows, schema, oracle, _ = shuffledResolverDataset(13, 400, 80)
	}
	truth := map[Pair]bool{}
	for _, p := range oracle {
		truth[p] = true
	}
	q := NewQueueBackend(QueueOptions{})
	rv, err := NewResolver(NewTable(schema...), Options{
		Threshold:    0.4,
		HITType:      PairHITs,
		ClusterSize:  10,
		Backend:      q,
		Seed:         1,
		SpammerRate:  NoSpammers,
		Transitivity: TransitivityOn,
		Hybrid:       hybrid,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Worker goroutine: claim and answer HITs with ground truth until
	// the session is done, holding each answer until the readers have
	// made a few more passes, so reads interleave with every commit.
	// Worker identities rotate — the queue hands each HIT to a given
	// worker at most once, and multi-assignment HITs need as many
	// distinct workers as assignments.
	// Each reader counts its passes on its own counter: a shared one
	// would order the readers' accesses and hide a reader–reader race.
	var passes [2]atomic.Int64
	reads := func() int64 { return passes[0].Load() + passes[1].Load() }
	stop := make(chan struct{})
	var wg sync.WaitGroup
	defer func() { close(stop); wg.Wait() }()
	wg.Add(1)
	go func() {
		defer wg.Done()
		worker := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			worker++
			c, ok := q.Claim(fmt.Sprintf("w%d", worker%16))
			if !ok {
				time.Sleep(time.Millisecond)
				continue
			}
			for until := reads() + 4; reads() < until; {
				select {
				case <-stop:
					return
				case <-time.After(100 * time.Microsecond):
				}
			}
			var vs []Verdict
			for _, p := range c.HIT.Pairs {
				vs = append(vs, Verdict{A: record.ID(p.A), B: record.ID(p.B), Match: truth[Pair{A: int(p.A), B: int(p.B)}]})
			}
			if err := q.Answer(c.Token, vs); err != nil {
				t.Error(err)
				return
			}
		}
	}()

	size := (len(rows) + deltas - 1) / deltas
	for d := 0; d < deltas; d++ {
		rv.AppendBatch(rows[d*size : min((d+1)*size, len(rows))]...)
		if d == 1 && !rv.HybridStats().Ready {
			t.Fatalf("the first delta trained no ready learner; the second will not route: %+v judged=%d", rv.HybridStats(), rv.JudgedPairs())
		}
		done := make(chan error, 1)
		go func() {
			_, err := rv.ResolveDeltaContext(context.Background())
			done <- err
		}()
		// Reader loops, two at once: every session read runs many times
		// while the resolve is in flight. Each yields briefly per pass so
		// the resolve and worker goroutines get CPU on small hosts.
		quit := make(chan struct{})
		before := reads()
		var readers sync.WaitGroup
		for g := range passes {
			readers.Add(1)
			go func() {
				defer readers.Done()
				for {
					select {
					case <-quit:
						return
					case <-time.After(100 * time.Microsecond):
					}
					rv.Len()
					rv.Record(int(passes[g].Load()) % len(rows))
					rv.JudgedPairs()
					rv.PendingPairs()
					rv.PartialPairs()
					rv.WorkerStats()
					rv.HybridStats()
					rv.Verdict(Pair{A: 0, B: 1})
					passes[g].Add(1)
				}
			}()
		}
		err := <-done
		close(quit)
		readers.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if reads() == before {
			t.Fatal("resolve finished before any concurrent read ran")
		}
	}
	if rv.JudgedPairs() == 0 {
		t.Fatal("queue-backed resolve judged nothing")
	}
	if hybrid == HybridOn && rv.HybridStats().BandHi <= 0 {
		t.Error("the second delta did not route")
	}
}
