package main

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	crowder "github.com/crowder/crowder"
	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/record"
)

// The gate functions run here on scaled-down workloads so the CI race
// matrix exercises the same code paths the bench jobs pin on the full
// reference datasets — a bench that only runs in its own job can rot
// unnoticed until the job breaks.

func TestPercentile(t *testing.T) {
	ms := []float64{5, 1, 4, 2, 3}
	cases := []struct{ q, want float64 }{
		{0.50, 3}, {0.99, 5}, {0.20, 1}, {1.0, 5},
	}
	for _, tc := range cases {
		if got := percentile(ms, tc.q); got != tc.want {
			t.Errorf("percentile(%v) = %v; want %v", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile(nil) = %v; want 0", got)
	}
}

func TestSparseWorkloadShape(t *testing.T) {
	answers, rejected, workers := sparseWorkload(3, 2)
	if workers != 15 {
		t.Errorf("workers = %d; want 15 (5 cohorts of 3)", workers)
	}
	if len(rejected) != 4 {
		t.Errorf("rejected pairs = %d; want 4 (2 cohorts x 2 pairs)", len(rejected))
	}
	// 3 cohorts x 10 pairs x 3 answers + 2 cohorts x 2 pairs x 3 answers.
	if want := 3*10*3 + 2*2*3; len(answers) != want {
		t.Errorf("answers = %d; want %d", len(answers), want)
	}
	// Every rejected pair is unanimously false; every other pair
	// unanimously true.
	for _, a := range answers {
		isRejected := false
		for _, p := range rejected {
			if a.Pair == p {
				isRejected = true
			}
		}
		if a.Match == isRejected {
			t.Fatalf("answer %+v contradicts the workload's design", a)
		}
	}
}

func TestUnanimousInversions(t *testing.T) {
	mk := func(a, b int) record.Pair { return record.MakePair(record.ID(a), record.ID(b)) }
	answers := []aggregate.Answer{
		{Pair: mk(0, 1), Worker: 1, Match: true},
		{Pair: mk(0, 1), Worker: 2, Match: true},
		{Pair: mk(2, 3), Worker: 1, Match: false},
		{Pair: mk(2, 3), Worker: 2, Match: false},
		{Pair: mk(4, 5), Worker: 1, Match: true}, // split: not unanimous
		{Pair: mk(4, 5), Worker: 2, Match: false},
	}
	post := aggregate.Posterior{
		mk(0, 1): 0.2,  // inverts the unanimous yes
		mk(2, 3): 0.91, // inverts the unanimous no
		mk(4, 5): 0.99, // split pair: never counted
	}
	inv, unan, worst := unanimousInversions(answers, post)
	if inv != 2 || unan != 2 {
		t.Errorf("inversions = %d over %d unanimous pairs; want 2 over 2", inv, unan)
	}
	if worst != 0.91 {
		t.Errorf("worst rejected posterior = %v; want 0.91", worst)
	}
	if inv, _, _ := unanimousInversions(answers, aggregate.Posterior{
		mk(0, 1): 0.9, mk(2, 3): 0.1, mk(4, 5): 0.5,
	}); inv != 0 {
		t.Errorf("faithful posterior counted %d inversions", inv)
	}
}

// runAggregate on a scaled-down restaurant workload: the full gate
// logic — sparse inversions, F1 comparison, calibration buckets, and
// the k-batch equality — on a table small enough for the race matrix.
func TestRunAggregateSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("bench gate")
	}
	workloads := []aggWorkload{{"restaurant", dataset.RestaurantN(3, 300, 60), 0.4}}
	rep, ok := runAggregate(workloads, dataset.RestaurantN(5, 200, 40))
	if !ok {
		t.Fatalf("aggregation gate failed on the small workload: %+v", rep)
	}
	if rep.Sparse.InversionsMAP != 0 {
		t.Errorf("MAP inverted %d unanimous verdicts", rep.Sparse.InversionsMAP)
	}
	if rep.Sparse.InversionsDefault == 0 {
		t.Error("sparse workload no longer reproduces the default-aggregator degeneracy")
	}
	if rep.Sparse.WorstRejectedPosteriorDefault <= 0.5 {
		t.Errorf("degenerate default posterior = %v; the pinned bug drives it past 0.5", rep.Sparse.WorstRejectedPosteriorDefault)
	}
	if rep.Sparse.WorstRejectedPosteriorMAP > 0.5 {
		t.Errorf("MAP worst rejected posterior = %v; must stay ≤ 0.5", rep.Sparse.WorstRejectedPosteriorMAP)
	}
	if len(rep.Runs) != 1 || rep.Runs[0].F1MAP < rep.Runs[0].F1Default {
		t.Errorf("runs = %+v; want one restaurant run at equal-or-better F1", rep.Runs)
	}
	if !rep.DeltaEqualsScratch {
		t.Error("k-batch MAP session differs from from-scratch")
	}
	for _, calib := range [][]aggregate.CalibrationBucket{rep.Runs[0].CalibrationDefault, rep.Runs[0].CalibrationMAP} {
		if len(calib) != 10 {
			t.Fatalf("calibration has %d buckets; want 10", len(calib))
		}
		for _, b := range calib {
			if b.Pairs > 0 && (b.MeanPosterior < b.Lo || b.MeanPosterior > b.Hi) {
				t.Errorf("bucket [%v,%v) reports mean posterior %v outside its range", b.Lo, b.Hi, b.MeanPosterior)
			}
		}
	}
}

// runDelta on a small base: the incremental gate's plumbing — identical
// matches, zero re-issued HITs — holds on any size.
func TestRunDeltaSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("bench gate")
	}
	rep, ok := runDelta(300, 30, 2, 0)
	if !ok {
		t.Fatalf("delta gate failed on the small workload: %+v", rep)
	}
	if !rep.MatchesIdentical {
		t.Error("small delta session diverged from the union resolve")
	}
	if rep.ReissuedHITs != 0 {
		t.Errorf("small delta session re-issued %d HITs", rep.ReissuedHITs)
	}
	if len(rep.DeltaResolveNs) != 2 {
		t.Errorf("recorded %d delta timings; want 2", len(rep.DeltaResolveNs))
	}
}

// runServe on a small base: the service bench's append→resolve→poll
// round-trip and its library-equality gate.
func TestRunServeSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("bench gate")
	}
	rep, ok := runServe(80, 10, 2, 40)
	if !ok {
		t.Fatalf("serve gate failed on the small workload: %+v", rep)
	}
	if !rep.MatchesIdentical {
		t.Error("service matches diverged from library-mode Resolve")
	}
	if rep.MatchReads != 40 || rep.MatchReadRPS <= 0 {
		t.Errorf("read-path stats look wrong: %+v", rep)
	}
	if rep.ResolveRoundP99Ms < rep.ResolveRoundP50Ms {
		t.Errorf("p99 %.3fms below p50 %.3fms", rep.ResolveRoundP99Ms, rep.ResolveRoundP50Ms)
	}
}

// runScale on small workloads: the streaming gates — ns/op ratio,
// stream ≡ materialized, delta ≡ scratch, full recall on the synthetic
// scale dataset, compressed < flat — hold at any size and GOMAXPROCS.
// The ≥ 50% bytes/op threshold is the CLI's (ScaleReport.bytesThresholdOK).
func TestRunScaleSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("bench gate")
	}
	rep, ok := runScale(1200, 8000, 200, 8192)
	if !ok {
		t.Fatalf("scale gate failed on the small workload: %+v", rep)
	}
	if !rep.StreamEqualsMaterialized {
		t.Error("streamed candidates diverged from the materialized path")
	}
	if !rep.DeltaEqualsScratch {
		t.Error("two-batch delta union diverged from the one-shot join")
	}
	if rep.ScaleMatchRecall != 1 {
		t.Errorf("scale recall = %v; every planted duplicate must be found", rep.ScaleMatchRecall)
	}
	if rep.CompressionRatio <= 1 {
		t.Errorf("compressed postings (%d B) not smaller than flat (%d B)", rep.PostingsBytes, rep.FlatBytes)
	}
}

func TestPeakRSSMB(t *testing.T) {
	if _, err := os.Stat("/proc/self/status"); err != nil {
		t.Skip("no /proc")
	}
	if got := peakRSSMB(); got <= 0 {
		t.Errorf("peakRSSMB = %v; want positive on Linux", got)
	}
}

func TestWriteJSONFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	writeJSON(path, map[string]int{"a": 1}, "wrote")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "{\n  \"a\": 1\n}\n" {
		t.Errorf("writeJSON wrote %q", data)
	}
}

func TestTransitiveF1(t *testing.T) {
	truth := record.NewPairSet()
	truth.Add(0, 1)
	if got := transitiveF1(truth, &crowder.Result{}); got != 0 {
		t.Errorf("F1 with no accepted matches = %v; want 0", got)
	}
	perfect := &crowder.Result{Matches: []crowder.Match{{Pair: crowder.Pair{A: 0, B: 1}, Confidence: 0.9}}}
	if got := transitiveF1(truth, perfect); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect single-match F1 = %v; want 1", got)
	}
}

func TestMatchesEqual(t *testing.T) {
	a := []tenantMatch{{A: 1, B: 2, Confidence: 1}, {A: 3, B: 4, Confidence: 0.5}}
	b := []tenantMatch{{A: 1, B: 2, Confidence: 1}, {A: 3, B: 4, Confidence: 0.5}}
	if !matchesEqual(a, b) {
		t.Error("identical lists reported unequal")
	}
	if matchesEqual(a, b[:1]) {
		t.Error("length mismatch reported equal")
	}
	b[1].Confidence = 0.25
	if matchesEqual(a, b) {
		t.Error("confidence drift reported equal — the identity gate must be exact")
	}
}

// TestTenantGroupRoundTrip drives the tenant bench's group runner on a
// tiny two-tenant workload: the shared pool must drain every resolve,
// the dispatcher stats must show traffic for both tables, and a tenant's
// matches must be bit-identical to the same spec run alone.
func TestTenantGroupRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers and a worker pool")
	}
	mk := func(seed int64, table string) *tenantSpec {
		d := dataset.RestaurantN(seed, 30, 5)
		sp := &tenantSpec{
			table: table, tenant: table, priority: 1,
			schema: d.Table.Schema, truth: d.Matches,
			rounds: 1, clusterSize: 5, threshold: 0.4, seed: seed,
		}
		for j := range d.Table.Records {
			sp.rows = append(sp.rows, d.Table.Records[j].Values)
		}
		return sp
	}
	// 3 workers minimum: each HIT wants 3 assignments and the queue
	// hands a given HIT to a given worker at most once.
	specs := []*tenantSpec{mk(7, "ta"), mk(8, "tb")}
	matches, runs := runGroup(specs, 3)
	for _, sp := range specs {
		run, ok := runs[sp.table]
		if !ok {
			t.Fatalf("no dispatcher stats for %s", sp.table)
		}
		if run.Claims == 0 || run.HITs == 0 {
			t.Errorf("%s: claims=%d hits=%d; want both > 0", sp.table, run.Claims, run.HITs)
		}
		if run.Matches != len(matches[sp.table]) {
			t.Errorf("%s: stats report %d matches, list has %d", sp.table, run.Matches, len(matches[sp.table]))
		}
	}
	solo, _ := runGroup([]*tenantSpec{mk(7, "ta")}, 3)
	if !matchesEqual(matches["ta"], solo["ta"]) {
		t.Error("ta: matches under a shared pool differ from the isolated run")
	}
}
