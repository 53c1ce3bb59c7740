// Command bench records the repository's performance baseline: ns/op for
// the similarity join (the seed repo's legacy map-of-strings path, the
// interned sequential path, and the sharded parallel path) and for the
// end-to-end Resolve workflow. It writes the results as JSON so the
// speedups of this and future PRs are pinned in the repository.
//
//	go run ./cmd/bench                 # prints JSON to stdout
//	go run ./cmd/bench -o BENCH_baseline.json
//
// With -delta it instead benchmarks the incremental resolver: small
// record batches appended to a large already-resolved table, comparing
// each ResolveDelta against a from-scratch Resolve of the union. The run
// fails (exit 1) unless the delta path is at least -min-speedup× faster,
// produces bit-identical matches, and re-issues zero HITs for
// already-judged pairs.
//
//	go run ./cmd/bench -delta -o BENCH_incremental.json
//
// With -serve it benchmarks the crowderd service path: a local HTTP
// daemon absorbs append→resolve→poll→matches round-trips, reporting
// requests/sec and p50/p99 latencies. The run fails (exit 1) unless the
// matches the service returns are bit-identical to a library-mode
// Resolve of the same table — the service smoke check.
//
//	go run ./cmd/bench -serve -o BENCH_service.json
//
// With -transitive it benchmarks the transitivity-aware adaptive
// scheduler on the Restaurant and Product(+Dup) datasets: each dataset
// resolves once with Options.Transitivity off and once on, recording
// HITs posted, pairs deduced, crowd cost and F1 against ground truth.
// The run fails (exit 1) unless transitivity posts strictly fewer HITs
// at equal-or-better F1 on every dataset, and unless a k-batch
// incremental session with transitivity reproduces the from-scratch
// transitive resolution.
//
//	go run ./cmd/bench -transitive -o BENCH_transitive.json
//
// With -hybrid it gates the hybrid human–machine router on the same
// two workloads, run as batched incremental sessions: with Hybrid on,
// the session-lifetime HIT count (including the trailing audit deltas)
// must fall by at least 40% at equal-or-better F1 versus the identical
// crowd-only session, the router must resolve a nonzero share of
// candidates by machine, and the whole session must be bit-identical
// across reruns and shard counts.
//
//	go run ./cmd/bench -hybrid -o BENCH_hybrid.json
//
// With -aggregate it gates the DawidSkeneMAP aggregator against the
// sparse-coverage degeneracy (see ROADMAP): on the single-round-worker
// stress workload the MAP aggregator must invert zero unanimous
// verdicts (plain Dawid–Skene inverts them — the pinned bug), it must
// score equal-or-better F1 than the default aggregator on the
// Restaurant and Product datasets, and a k-batch incremental session
// under MAP must reproduce the from-scratch MAP resolution bit for
// bit. The report includes posterior-vs-empirical-precision
// calibration buckets for both aggregators.
//
//	go run ./cmd/bench -aggregate -o BENCH_aggregate.json
//
// With -shard it benchmarks the sharded resolution path: the synthetic
// scale workload joined from scratch with P shards on P procs for
// P ∈ {1,2,4,8}, plus full crowd resolutions of the same table at
// shard counts 0/1/2/4/8. The run fails (exit 1) unless every sharded
// output — ranked candidates, matches, HIT counts, deduced pairs — is
// bit-identical to the unsharded run, and (on multi-core hosts) unless
// the sweep reaches min(4, NumCPU/2)× speedup.
//
//	go run ./cmd/bench -shard -o BENCH_shard.json
//
// All modes accept -cpuprofile/-memprofile and, for lock-contention
// work, -mutexprofile/-blockprofile (full-rate mutex and blocking
// profiles written at exit). Pipeline stages are labeled with pprof
// labels ("stage"), so profiles attribute samples to prune/generate/
// execute/aggregate directly.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	crowder "github.com/crowder/crowder"
	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/eval"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/service"
	"github.com/crowder/crowder/internal/simjoin"
)

// Benchmark is one recorded measurement.
type Benchmark struct {
	Name        string `json:"name"`
	NsPerOp     int64  `json:"ns_per_op"`
	AllocsPerOp int64  `json:"allocs_per_op"`
	BytesPerOp  int64  `json:"bytes_per_op"`
	// SpeedupVsSeed is NsPerOp of the seed baseline divided by this
	// benchmark's NsPerOp, where a seed baseline exists (simjoin rows).
	SpeedupVsSeed float64 `json:"speedup_vs_seed,omitempty"`
}

// Baseline is the file layout of BENCH_baseline.json.
type Baseline struct {
	GoVersion  string      `json:"go_version"`
	NumCPU     int         `json:"num_cpu"`
	GoMaxProcs int         `json:"go_max_procs"`
	Records    int         `json:"records"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func measure(name string, f func(b *testing.B)) Benchmark {
	r := testing.Benchmark(f)
	return Benchmark{
		Name:        name,
		NsPerOp:     r.NsPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}

// DeltaReport is the file layout of BENCH_incremental.json.
type DeltaReport struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"go_max_procs"`

	BaseRecords int     `json:"base_records"`
	BatchSize   int     `json:"batch_size"`
	Batches     int     `json:"batches"`
	Threshold   float64 `json:"threshold"`

	// FullResolveNs is a from-scratch Resolve of the final union table.
	FullResolveNs int64 `json:"full_resolve_ns"`
	// DeltaResolveNs lists each 100-record ResolveDelta's wall time.
	DeltaResolveNs     []int64 `json:"delta_resolve_ns"`
	DeltaResolveNsMean int64   `json:"delta_resolve_ns_mean"`
	// Speedup is FullResolveNs / DeltaResolveNsMean.
	Speedup float64 `json:"speedup"`

	// MatchesIdentical reports whether the final incremental Matches are
	// bit-identical to the from-scratch union resolve.
	MatchesIdentical bool `json:"matches_identical"`
	// ReissuedHITs counts delta HITs beyond what the genuinely new
	// candidate pairs required — zero means cached verdicts fully
	// shielded already-judged pairs from the crowd.
	ReissuedHITs int `json:"reissued_hits"`

	SessionHITs          int   `json:"session_hits"`
	FullHITs             int   `json:"full_hits"`
	NewCandidatesByBatch []int `json:"new_candidates_by_batch"`
	JudgedPairs          int   `json:"judged_pairs"`
}

// runDelta benchmarks the incremental resolver and enforces its
// acceptance criteria, returning the report and whether they held.
func runDelta(base, batch, batches int, minSpeedup float64) (*DeltaReport, bool) {
	if base < 1 || batch < 1 || batches < 1 {
		log.Fatalf("delta mode needs -base, -batch and -batches >= 1 (got %d, %d, %d)", base, batch, batches)
	}
	const tau = 0.5
	total := base + batch*batches
	d := dataset.RestaurantN(3, total, total/10)
	rows := make([][]string, d.Table.Len())
	for i := range d.Table.Records {
		rows[i] = d.Table.Records[i].Values
	}
	var oracle []crowder.Pair
	for _, p := range d.Matches.Slice() {
		oracle = append(oracle, crowder.Pair{A: int(p.A), B: int(p.B)})
	}
	opts := crowder.Options{
		Threshold:   tau,
		HITType:     crowder.PairHITs,
		ClusterSize: 10,
		Oracle:      oracle,
		Seed:        1,
	}

	rep := &DeltaReport{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),

		BaseRecords: base,
		BatchSize:   batch,
		Batches:     batches,
		Threshold:   tau,
	}

	// Incremental session: resolve the base table once (untimed — that is
	// the long-lived service's steady state), then time each delta batch.
	rv, err := crowder.NewResolver(crowder.NewTable(d.Table.Schema...), opts)
	if err != nil {
		log.Fatal(err)
	}
	rv.AppendBatch(rows[:base]...)
	baseRes, err := rv.ResolveDelta()
	if err != nil {
		log.Fatal(err)
	}
	rep.SessionHITs = baseRes.HITs

	var last *crowder.Result
	var totalDelta int64
	for b := 0; b < batches; b++ {
		lo := base + b*batch
		rv.AppendBatch(rows[lo : lo+batch]...)
		start := time.Now()
		last, err = rv.ResolveDelta()
		if err != nil {
			log.Fatal(err)
		}
		ns := time.Since(start).Nanoseconds()
		rep.DeltaResolveNs = append(rep.DeltaResolveNs, ns)
		totalDelta += ns
		rep.SessionHITs += last.HITs
		rep.NewCandidatesByBatch = append(rep.NewCandidatesByBatch, last.NewCandidates)
		// Pair-based HITs pack ClusterSize new pairs per task: any HIT
		// beyond ⌈new/k⌉ would mean an already-judged pair went back to
		// the crowd.
		need := (last.NewCandidates + opts.ClusterSize - 1) / opts.ClusterSize
		rep.ReissuedHITs += last.HITs - need
	}
	rep.DeltaResolveNsMean = totalDelta / int64(batches)
	rep.JudgedPairs = rv.JudgedPairs()

	// From-scratch baseline over the same final union table.
	union := crowder.NewTable(d.Table.Schema...)
	for _, row := range rows {
		union.Append(row...)
	}
	start := time.Now()
	full, err := crowder.Resolve(union, opts)
	if err != nil {
		log.Fatal(err)
	}
	rep.FullResolveNs = time.Since(start).Nanoseconds()
	rep.FullHITs = full.HITs
	rep.Speedup = float64(rep.FullResolveNs) / float64(rep.DeltaResolveNsMean)

	rep.MatchesIdentical = len(full.Matches) == len(last.Matches)
	if rep.MatchesIdentical {
		for i := range full.Matches {
			if full.Matches[i] != last.Matches[i] {
				rep.MatchesIdentical = false
				break
			}
		}
	}

	ok := true
	if !rep.MatchesIdentical {
		fmt.Fprintln(os.Stderr, "FAIL: incremental matches differ from the from-scratch union resolve")
		ok = false
	}
	if rep.ReissuedHITs != 0 {
		fmt.Fprintf(os.Stderr, "FAIL: %d HITs re-issued for already-judged pairs\n", rep.ReissuedHITs)
		ok = false
	}
	if rep.Speedup < minSpeedup {
		fmt.Fprintf(os.Stderr, "FAIL: delta speedup %.2fx below required %.2fx\n", rep.Speedup, minSpeedup)
		ok = false
	}
	return rep, ok
}

// ServiceReport is the file layout of BENCH_service.json.
type ServiceReport struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"go_max_procs"`

	BaseRecords int `json:"base_records"`
	BatchSize   int `json:"batch_size"`
	Rounds      int `json:"rounds"`

	// Append+resolve+poll round-trip latency (one delta resolution job
	// end to end over HTTP).
	ResolveRoundMeanMs float64 `json:"resolve_round_mean_ms"`
	ResolveRoundP50Ms  float64 `json:"resolve_round_p50_ms"`
	ResolveRoundP99Ms  float64 `json:"resolve_round_p99_ms"`
	ResolveRoundsPerS  float64 `json:"resolve_rounds_per_sec"`

	// Read-path throughput: concurrent GET /matches.
	MatchReads        int     `json:"match_reads"`
	MatchReadRPS      float64 `json:"match_read_rps"`
	MatchReadP50Ms    float64 `json:"match_read_p50_ms"`
	MatchReadP99Ms    float64 `json:"match_read_p99_ms"`
	MatchReadClients  int     `json:"match_read_clients"`
	MatchesIdentical  bool    `json:"matches_identical"`
	SessionHITs       int     `json:"session_hits"`
	SessionCandidates int     `json:"session_candidates"`
}

// percentile returns the nearest-rank percentile (ceil convention), so
// small samples report their tail honestly: p99 of 5 samples is the
// maximum, not the second-largest.
func percentile(ms []float64, q float64) float64 {
	if len(ms) == 0 {
		return 0
	}
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

// benchCall issues one JSON request against the bench service and decodes
// the response.
func benchCall(client *http.Client, method, url string, body, out any) error {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			return err
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var e map[string]any
		_ = json.NewDecoder(resp.Body).Decode(&e)
		return fmt.Errorf("%s %s: %d %v", method, url, resp.StatusCode, e)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// runServe benchmarks a local crowderd: timed append+resolve+poll rounds
// against a simulated-backend table, then concurrent match reads, then
// the equality gate against library-mode Resolve.
func runServe(base, batch, rounds, reads int) (*ServiceReport, bool) {
	if base < 1 || batch < 1 || rounds < 1 {
		log.Fatalf("serve mode needs -base, -batch and -rounds >= 1 (got %d, %d, %d)", base, batch, rounds)
	}
	const tau = 0.5
	total := base + batch*rounds
	d := dataset.RestaurantN(3, total, total/10)
	rows := make([][]string, d.Table.Len())
	for i := range d.Table.Records {
		rows[i] = d.Table.Records[i].Values
	}
	var oracle [][2]int
	var libOracle []crowder.Pair
	for _, p := range d.Matches.Slice() {
		oracle = append(oracle, [2]int{int(p.A), int(p.B)})
		libOracle = append(libOracle, crowder.Pair{A: int(p.A), B: int(p.B)})
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: service.New(service.Options{})}
	go func() { _ = httpSrv.Serve(ln) }()
	defer httpSrv.Close()
	url := "http://" + ln.Addr().String()
	client := &http.Client{}

	rep := &ServiceReport{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),

		BaseRecords: base,
		BatchSize:   batch,
		Rounds:      rounds,
		MatchReads:  reads,
	}

	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(benchCall(client, "POST", url+"/tables/bench", map[string]any{
		"schema": d.Table.Schema,
		"options": map[string]any{
			"threshold": tau, "hit_type": "pair", "cluster_size": 10,
			"seed": 1, "oracle": oracle,
		},
	}, nil))

	// resolveRound appends a slice of rows (if any), starts a resolution
	// job and polls it to completion, returning total HITs and candidates.
	resolveRound := func(lo, hi int) {
		if hi > lo {
			must(benchCall(client, "POST", url+"/tables/bench/records",
				map[string]any{"rows": rows[lo:hi]}, nil))
		}
		var kicked struct {
			Job int `json:"job"`
		}
		must(benchCall(client, "POST", url+"/tables/bench/resolve", map[string]any{}, &kicked))
		for {
			var status struct {
				State  string `json:"state"`
				Error  string `json:"error"`
				Result struct {
					HITs       int `json:"hits"`
					Candidates int `json:"candidates"`
				} `json:"result"`
			}
			must(benchCall(client, "GET", fmt.Sprintf("%s/tables/bench/jobs/%d", url, kicked.Job), nil, &status))
			switch status.State {
			case "done":
				rep.SessionHITs += status.Result.HITs
				rep.SessionCandidates = status.Result.Candidates
				return
			case "running", "queued":
				time.Sleep(time.Millisecond)
			default:
				log.Fatalf("job %d ended %s: %s", kicked.Job, status.State, status.Error)
			}
		}
	}

	// Untimed: the steady-state base resolution.
	resolveRound(0, base)

	// Timed: append+resolve+poll rounds.
	var roundMs []float64
	start := time.Now()
	for r := 0; r < rounds; r++ {
		lo := base + r*batch
		t0 := time.Now()
		resolveRound(lo, lo+batch)
		roundMs = append(roundMs, float64(time.Since(t0).Microseconds())/1000)
	}
	elapsed := time.Since(start).Seconds()
	var sum float64
	for _, ms := range roundMs {
		sum += ms
	}
	rep.ResolveRoundMeanMs = sum / float64(rounds)
	rep.ResolveRoundP50Ms = percentile(roundMs, 0.50)
	rep.ResolveRoundP99Ms = percentile(roundMs, 0.99)
	rep.ResolveRoundsPerS = float64(rounds) / elapsed

	// Read path: concurrent GET /matches.
	const clients = 8
	rep.MatchReadClients = clients
	readMs := make([]float64, reads)
	var wg sync.WaitGroup
	readStart := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < reads; i += clients {
				t0 := time.Now()
				if err := benchCall(client, "GET", url+"/tables/bench/matches?min=0.5", nil, &map[string]any{}); err != nil {
					log.Fatal(err)
				}
				readMs[i] = float64(time.Since(t0).Microseconds()) / 1000
			}
		}(c)
	}
	wg.Wait()
	rep.MatchReadRPS = float64(reads) / time.Since(readStart).Seconds()
	rep.MatchReadP50Ms = percentile(readMs, 0.50)
	rep.MatchReadP99Ms = percentile(readMs, 0.99)

	// Equality gate: the service's matches must equal library-mode
	// resolution of the same table.
	var got struct {
		Matches []struct {
			A          int     `json:"a"`
			B          int     `json:"b"`
			Confidence float64 `json:"confidence"`
		} `json:"matches"`
	}
	must(benchCall(client, "GET", url+"/tables/bench/matches", nil, &got))
	union := crowder.NewTable(d.Table.Schema...)
	for _, row := range rows {
		union.Append(row...)
	}
	want, err := crowder.Resolve(union, crowder.Options{
		Threshold: tau, HITType: crowder.PairHITs, ClusterSize: 10,
		Oracle: libOracle, Seed: 1,
	})
	must(err)
	rep.MatchesIdentical = len(got.Matches) == len(want.Matches)
	if rep.MatchesIdentical {
		for i, m := range want.Matches {
			if got.Matches[i].A != m.Pair.A || got.Matches[i].B != m.Pair.B || got.Matches[i].Confidence != m.Confidence {
				rep.MatchesIdentical = false
				break
			}
		}
	}

	ok := true
	if !rep.MatchesIdentical {
		fmt.Fprintln(os.Stderr, "FAIL: service matches differ from library-mode Resolve of the same table")
		ok = false
	}
	return rep, ok
}

// TransitiveRun is one dataset's off-vs-on comparison in
// BENCH_transitive.json.
type TransitiveRun struct {
	Dataset    string  `json:"dataset"`
	Records    int     `json:"records"`
	Threshold  float64 `json:"threshold"`
	Candidates int     `json:"candidates"`

	HITsOff int     `json:"hits_off"`
	HITsOn  int     `json:"hits_on"`
	CostOff float64 `json:"cost_off_dollars"`
	CostOn  float64 `json:"cost_on_dollars"`
	F1Off   float64 `json:"f1_off"`
	F1On    float64 `json:"f1_on"`

	DeducedPairs  int `json:"deduced_pairs"`
	HITsSaved     int `json:"hits_saved"`
	RetractedHITs int `json:"retracted_hits"`
}

// TransitiveReport is the file layout of BENCH_transitive.json.
type TransitiveReport struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"go_max_procs"`

	Runs []TransitiveRun `json:"runs"`
	// DeltaEqualsScratch reports whether a k-batch incremental session
	// with transitivity reproduced the from-scratch transitive Matches
	// bit-for-bit on the heavy-transitivity workload.
	DeltaEqualsScratch bool `json:"delta_equals_scratch"`
}

// transitiveF1 scores accepted matches against ground truth.
func transitiveF1(truth record.PairSet, res *crowder.Result) float64 {
	tp, fp := 0, 0
	for _, m := range res.Accepted() {
		if truth.Has(record.ID(m.Pair.A), record.ID(m.Pair.B)) {
			tp++
		} else {
			fp++
		}
	}
	if tp == 0 {
		return 0
	}
	p := float64(tp) / float64(tp+fp)
	r := float64(tp) / float64(truth.Len())
	return eval.F1(p, r)
}

// runTransitive benchmarks the adaptive transitive scheduler and
// enforces its acceptance criteria: strictly fewer HITs at
// equal-or-better F1 on every dataset, and k-batch ≡ from-scratch.
func runTransitive() (*TransitiveReport, bool) {
	rep := &TransitiveReport{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	type workload struct {
		name string
		d    *dataset.Dataset
		tau  float64
	}
	workloads := []workload{
		// Restaurant at τ=0.4: duplicate clusters up to ~15 records plus a
		// borderline hairball — positive chains and negative inference.
		{"restaurant", dataset.RestaurantN(3, 2000, 400), 0.4},
		// Product with injected duplicates (the paper's Figure 15(b)
		// workload): ~74% of candidate pairs are transitively implied. The
		// plain cross-source Product join is almost all 1:1 components with
		// nothing to deduce, so the duplicate-injected variant is the
		// transitivity benchmark.
		{"product+dup", dataset.ProductDup(2, dataset.Product(1)), 0.5},
	}

	ok := true
	for _, w := range workloads {
		var oracle []crowder.Pair
		for _, p := range w.d.Matches.Slice() {
			oracle = append(oracle, crowder.Pair{A: int(p.A), B: int(p.B)})
		}
		build := func() *crowder.Table {
			tab := crowder.NewTable(w.d.Table.Schema...)
			for i := range w.d.Table.Records {
				tab.Append(w.d.Table.Records[i].Values...)
			}
			return tab
		}
		opts := crowder.Options{
			Threshold: w.tau, HITType: crowder.PairHITs, ClusterSize: 10,
			Oracle: oracle, Seed: 1,
		}
		off, err := crowder.Resolve(build(), opts)
		if err != nil {
			log.Fatal(err)
		}
		opts.Transitivity = crowder.TransitivityOn
		on, err := crowder.Resolve(build(), opts)
		if err != nil {
			log.Fatal(err)
		}
		run := TransitiveRun{
			Dataset: w.name, Records: w.d.Table.Len(), Threshold: w.tau,
			Candidates: on.Candidates,
			HITsOff:    off.HITs, HITsOn: on.HITs,
			CostOff: off.CostDollars, CostOn: on.CostDollars,
			F1Off: transitiveF1(w.d.Matches, off), F1On: transitiveF1(w.d.Matches, on),
			DeducedPairs: on.DeducedPairs, HITsSaved: on.HITsSaved,
			RetractedHITs: on.RetractedHITs,
		}
		rep.Runs = append(rep.Runs, run)
		if run.HITsOn >= run.HITsOff {
			fmt.Fprintf(os.Stderr, "FAIL: %s: transitivity posted %d HITs, one-shot %d — no savings\n", w.name, run.HITsOn, run.HITsOff)
			ok = false
		}
		if run.F1On < run.F1Off {
			fmt.Fprintf(os.Stderr, "FAIL: %s: transitive F1 %.4f below one-shot %.4f\n", w.name, run.F1On, run.F1Off)
			ok = false
		}
	}

	// k-batch ≡ from-scratch under transitivity (clean pool: unanimity
	// makes every deduction chain reproducible across batchings).
	d := dataset.ProductDup(2, dataset.Product(1))
	var oracle []crowder.Pair
	for _, p := range d.Matches.Slice() {
		oracle = append(oracle, crowder.Pair{A: int(p.A), B: int(p.B)})
	}
	eqOpts := crowder.Options{
		Threshold: 0.5, HITType: crowder.PairHITs, ClusterSize: 10,
		Oracle: oracle, Seed: 1,
		Transitivity: crowder.TransitivityOn, SpammerRate: crowder.NoSpammers,
	}
	union := crowder.NewTable(d.Table.Schema...)
	for i := range d.Table.Records {
		union.Append(d.Table.Records[i].Values...)
	}
	full, err := crowder.Resolve(union, eqOpts)
	if err != nil {
		log.Fatal(err)
	}
	rv, err := crowder.NewResolver(crowder.NewTable(d.Table.Schema...), eqOpts)
	if err != nil {
		log.Fatal(err)
	}
	var last *crowder.Result
	const batches = 4
	size := (d.Table.Len() + batches - 1) / batches
	for lo := 0; lo < d.Table.Len(); lo += size {
		hi := lo + size
		if hi > d.Table.Len() {
			hi = d.Table.Len()
		}
		for i := lo; i < hi; i++ {
			rv.Append(d.Table.Records[i].Values...)
		}
		if last, err = rv.ResolveDelta(); err != nil {
			log.Fatal(err)
		}
	}
	rep.DeltaEqualsScratch = len(full.Matches) == len(last.Matches)
	if rep.DeltaEqualsScratch {
		for i := range full.Matches {
			if full.Matches[i] != last.Matches[i] {
				rep.DeltaEqualsScratch = false
				break
			}
		}
	}
	if !rep.DeltaEqualsScratch {
		fmt.Fprintln(os.Stderr, "FAIL: k-batch transitive ResolveDelta differs from from-scratch transitive Resolve")
		ok = false
	}
	return rep, ok
}

// SparseAggregateRun is the degeneracy stress workload's off-vs-on
// comparison in BENCH_aggregate.json: cohorts of single-round workers,
// most of whom only ever see true matches, plus cohorts whose whole
// history is unanimously rejected pairs — the answer pattern that makes
// plain Dawid–Skene flip unanimous rejections to confident matches.
type SparseAggregateRun struct {
	Pairs          int `json:"pairs"`
	UnanimousPairs int `json:"unanimous_pairs"`
	Workers        int `json:"workers"`

	// Inversions counts unanimously judged pairs whose aggregated
	// decision contradicts the unanimous verdict. The gate requires
	// zero under MAP; the default estimator's count documents the bug.
	InversionsDefault int `json:"inversions_default"`
	InversionsMAP     int `json:"inversions_map"`

	// WorstRejectedPosterior is the highest posterior either aggregator
	// assigned to a unanimously rejected pair (ideally ≈0; the
	// degeneracy drives the default's to ≈1).
	WorstRejectedPosteriorDefault float64 `json:"worst_rejected_posterior_default"`
	WorstRejectedPosteriorMAP     float64 `json:"worst_rejected_posterior_map"`
}

// AggregateRun is one dataset's default-vs-MAP comparison in
// BENCH_aggregate.json.
type AggregateRun struct {
	Dataset    string  `json:"dataset"`
	Records    int     `json:"records"`
	Threshold  float64 `json:"threshold"`
	Candidates int     `json:"candidates"`

	F1Default float64 `json:"f1_default"`
	F1MAP     float64 `json:"f1_map"`

	CalibrationDefault []aggregate.CalibrationBucket `json:"calibration_default"`
	CalibrationMAP     []aggregate.CalibrationBucket `json:"calibration_map"`
}

// AggregateReport is the file layout of BENCH_aggregate.json.
type AggregateReport struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GoMaxProcs int    `json:"go_max_procs"`

	Sparse SparseAggregateRun `json:"sparse"`
	Runs   []AggregateRun     `json:"runs"`
	// DeltaEqualsScratch reports whether a k-batch incremental session
	// under the MAP aggregator reproduced the from-scratch MAP Matches
	// bit for bit.
	DeltaEqualsScratch bool `json:"delta_equals_scratch"`
}

// sparseWorkload synthesizes the degeneracy answer pattern: nMatch
// cohorts of three single-round workers each unanimously confirming
// ten true matches, plus nReject cohorts whose entire history is two
// pairs unanimously judged non-matches. Everyone answers truthfully;
// the failure is the aggregator's alone.
func sparseWorkload(nMatch, nReject int) (answers []aggregate.Answer, rejected []record.Pair, workers int) {
	worker, pid := 0, 0
	for c := 0; c < nMatch; c++ {
		ws := []int{worker, worker + 1, worker + 2}
		worker += 3
		for i := 0; i < 10; i++ {
			p := record.MakePair(record.ID(2*pid), record.ID(2*pid+1))
			pid++
			for _, w := range ws {
				answers = append(answers, aggregate.Answer{Pair: p, Worker: w, Match: true})
			}
		}
	}
	for c := 0; c < nReject; c++ {
		ws := []int{worker, worker + 1, worker + 2}
		worker += 3
		for i := 0; i < 2; i++ {
			p := record.MakePair(record.ID(2*pid), record.ID(2*pid+1))
			pid++
			rejected = append(rejected, p)
			for _, w := range ws {
				answers = append(answers, aggregate.Answer{Pair: p, Worker: w, Match: false})
			}
		}
	}
	aggregate.SortCanonical(answers)
	return answers, rejected, worker
}

// unanimousInversions counts unanimously judged pairs decided against
// their unanimous verdict, and the worst posterior given to a
// unanimously rejected pair.
func unanimousInversions(answers []aggregate.Answer, post aggregate.Posterior) (inversions int, unanimous int, worstRejected float64) {
	yes := make(map[record.Pair]int)
	total := make(map[record.Pair]int)
	for _, a := range answers {
		total[a.Pair]++
		if a.Match {
			yes[a.Pair]++
		}
	}
	for p, tot := range total {
		allYes, allNo := yes[p] == tot, yes[p] == 0
		if !allYes && !allNo {
			continue
		}
		unanimous++
		if allYes && post[p] < 0.5 {
			inversions++
		}
		if allNo {
			if post[p] >= 0.5 {
				inversions++
			}
			if post[p] > worstRejected {
				worstRejected = post[p]
			}
		}
	}
	return inversions, unanimous, worstRejected
}

// aggWorkload is one dataset the aggregation gate scores F1 on.
type aggWorkload struct {
	name string
	d    *dataset.Dataset
	tau  float64
}

// defaultAggregateWorkloads are the reference datasets the CI gate
// pins: Restaurant and the same Product(+Dup) workload the
// transitivity gate uses.
func defaultAggregateWorkloads() []aggWorkload {
	return []aggWorkload{
		{"restaurant", dataset.RestaurantN(3, 2000, 400), 0.4},
		// Duplicate-injected so the candidate graph has the clustered
		// structure real product feeds show.
		{"product+dup", dataset.ProductDup(2, dataset.Product(1)), 0.5},
	}
}

// runAggregate benchmarks the MAP aggregator and enforces its
// acceptance criteria: zero unanimous-verdict inversions on the sparse
// stress workload, equal-or-better F1 on every dataset, and k-batch ≡
// from-scratch under the new aggregator. eqData is the dataset for the
// k-batch equality check.
func runAggregate(workloads []aggWorkload, eqData *dataset.Dataset) (*AggregateReport, bool) {
	rep := &AggregateReport{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	ok := true

	// 1. The sparse-worker stress workload from the PR 4 degeneracy
	// repro, scaled up: 90 single-round workers.
	answers, _, workers := sparseWorkload(25, 5)
	ds, err := aggregate.New(aggregate.MethodDawidSkene)
	if err != nil {
		log.Fatal(err)
	}
	mp, err := aggregate.New(aggregate.MethodDawidSkeneMAP)
	if err != nil {
		log.Fatal(err)
	}
	dsPost := ds.Aggregate(answers)
	mpPost := mp.Aggregate(answers)
	invDS, unan, worstDS := unanimousInversions(answers, dsPost)
	invMP, _, worstMP := unanimousInversions(answers, mpPost)
	rep.Sparse = SparseAggregateRun{
		Pairs:          len(dsPost),
		UnanimousPairs: unan,
		Workers:        workers,

		InversionsDefault: invDS,
		InversionsMAP:     invMP,

		WorstRejectedPosteriorDefault: worstDS,
		WorstRejectedPosteriorMAP:     worstMP,
	}
	if invMP != 0 {
		fmt.Fprintf(os.Stderr, "FAIL: MAP aggregator inverted %d unanimous verdicts on the sparse workload\n", invMP)
		ok = false
	}
	if invDS == 0 {
		fmt.Fprintln(os.Stderr, "FAIL: the sparse workload no longer reproduces the pinned default-aggregator degeneracy — the gate is vacuous")
		ok = false
	}

	// 2. End-to-end F1 on the reference datasets, default vs MAP.
	for _, w := range workloads {
		var oracle []crowder.Pair
		for _, p := range w.d.Matches.Slice() {
			oracle = append(oracle, crowder.Pair{A: int(p.A), B: int(p.B)})
		}
		build := func() *crowder.Table {
			tab := crowder.NewTable(w.d.Table.Schema...)
			for i := range w.d.Table.Records {
				tab.Append(w.d.Table.Records[i].Values...)
			}
			return tab
		}
		opts := crowder.Options{
			Threshold: w.tau, HITType: crowder.PairHITs, ClusterSize: 10,
			Oracle: oracle, Seed: 1,
		}
		def, err := crowder.Resolve(build(), opts)
		if err != nil {
			log.Fatal(err)
		}
		opts.Aggregation = crowder.AggregationDawidSkeneMAP
		mapped, err := crowder.Resolve(build(), opts)
		if err != nil {
			log.Fatal(err)
		}
		calib := func(res *crowder.Result) []aggregate.CalibrationBucket {
			post := make(aggregate.Posterior, len(res.Matches))
			for _, m := range res.Matches {
				post[record.MakePair(record.ID(m.Pair.A), record.ID(m.Pair.B))] = m.Confidence
			}
			return aggregate.Calibration(post, func(p record.Pair) bool {
				return w.d.Matches.Has(p.A, p.B)
			}, 10)
		}
		run := AggregateRun{
			Dataset: w.name, Records: w.d.Table.Len(), Threshold: w.tau,
			Candidates: mapped.Candidates,
			F1Default:  transitiveF1(w.d.Matches, def),
			F1MAP:      transitiveF1(w.d.Matches, mapped),

			CalibrationDefault: calib(def),
			CalibrationMAP:     calib(mapped),
		}
		rep.Runs = append(rep.Runs, run)
		if run.F1MAP < run.F1Default {
			fmt.Fprintf(os.Stderr, "FAIL: %s: MAP F1 %.4f below default %.4f\n", w.name, run.F1MAP, run.F1Default)
			ok = false
		}
	}

	// 3. k-batch incremental ≡ from-scratch under the MAP aggregator.
	d := eqData
	var oracle []crowder.Pair
	for _, p := range d.Matches.Slice() {
		oracle = append(oracle, crowder.Pair{A: int(p.A), B: int(p.B)})
	}
	eqOpts := crowder.Options{
		Threshold: 0.4, HITType: crowder.PairHITs, ClusterSize: 10,
		Oracle: oracle, Seed: 1, Aggregation: crowder.AggregationDawidSkeneMAP,
	}
	union := crowder.NewTable(d.Table.Schema...)
	for i := range d.Table.Records {
		union.Append(d.Table.Records[i].Values...)
	}
	full, err := crowder.Resolve(union, eqOpts)
	if err != nil {
		log.Fatal(err)
	}
	rv, err := crowder.NewResolver(crowder.NewTable(d.Table.Schema...), eqOpts)
	if err != nil {
		log.Fatal(err)
	}
	var last *crowder.Result
	const batches = 4
	size := (d.Table.Len() + batches - 1) / batches
	for lo := 0; lo < d.Table.Len(); lo += size {
		hi := lo + size
		if hi > d.Table.Len() {
			hi = d.Table.Len()
		}
		for i := lo; i < hi; i++ {
			rv.Append(d.Table.Records[i].Values...)
		}
		if last, err = rv.ResolveDelta(); err != nil {
			log.Fatal(err)
		}
	}
	rep.DeltaEqualsScratch = len(full.Matches) == len(last.Matches)
	if rep.DeltaEqualsScratch {
		for i := range full.Matches {
			if full.Matches[i] != last.Matches[i] {
				rep.DeltaEqualsScratch = false
				break
			}
		}
	}
	if !rep.DeltaEqualsScratch {
		fmt.Fprintln(os.Stderr, "FAIL: k-batch ResolveDelta under the MAP aggregator differs from from-scratch Resolve")
		ok = false
	}
	return rep, ok
}

// writeLookupProfile writes a runtime profile by name ("mutex",
// "block") in pprof format.
func writeLookupProfile(path, name string) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	p := pprof.Lookup(name)
	if p == nil {
		log.Fatalf("no %q profile", name)
	}
	if err := p.WriteTo(f, 0); err != nil {
		log.Fatal(err)
	}
}

func writeJSON(out string, v any, summary string) {
	enc, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if out == "" {
		fmt.Print(string(enc))
		return
	}
	if err := os.WriteFile(out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Println(summary)
}

func main() {
	os.Exit(run())
}

// run is main's body, returning the exit code so deferred profile writers
// execute before the process exits (os.Exit skips defers).
func run() int {
	out := flag.String("o", "", "write JSON to this file instead of stdout")
	n := flag.Int("n", 1000, "records in the benchmark table")
	delta := flag.Bool("delta", false, "benchmark the incremental resolver instead of the batch baseline")
	baseN := flag.Int("base", 10000, "delta/serve mode: records resolved before the timed batches")
	batchN := flag.Int("batch", 100, "delta/serve mode: records per batch")
	batches := flag.Int("batches", 5, "delta mode: number of timed delta batches")
	minSpeedup := flag.Float64("min-speedup", 1, "delta mode: fail unless delta resolve is at least this many times faster than from-scratch")
	serve := flag.Bool("serve", false, "benchmark the crowderd service path instead of the batch baseline")
	rounds := flag.Int("rounds", 5, "serve mode: timed append+resolve+poll rounds")
	reads := flag.Int("reads", 2000, "serve mode: GET /matches requests for the read-path throughput")
	transitive := flag.Bool("transitive", false, "benchmark the transitivity-aware adaptive scheduler instead of the batch baseline")
	hybrid := flag.Bool("hybrid", false, "gate the hybrid human–machine router: session-lifetime HIT savings at equal-or-better F1, plus rerun and shard bit-identity")
	aggregateMode := flag.Bool("aggregate", false, "gate the DawidSkeneMAP aggregator against the sparse-coverage degeneracy instead of the batch baseline")
	scale := flag.Bool("scale", false, "benchmark the streaming join path against the materialized one and run the large synthetic workload")
	scaleN := flag.Int("scale-n", 1_000_000, "scale mode: records in the synthetic scale workload")
	scaleTopK := flag.Int("scale-topk", 1000, "scale mode: bounded ranking-heap size the stream feeds")
	scaleMaxRSS := flag.Float64("scale-max-rss-mb", 8192, "scale mode: fail if peak RSS exceeds this many MB")
	shard := flag.Bool("shard", false, "benchmark the sharded resolution path: scaling sweep plus cross-shard-count equality gates")
	tenant := flag.Bool("tenant", false, "benchmark the multi-tenant claim plane: interference, pool scaling and per-tenant identity gates")
	tenants := flag.Int("tenants", 3, "tenant mode: light tenant tables sharing the pool")
	tenantWorkers := flag.Int("tenant-workers", 4, "tenant mode: shared-pool workers")
	recoverMode := flag.Bool("recover", false, "gate durable session storage: WAL+snapshot reload and a crowderd SIGKILL drill must be indistinguishable from never crashing")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	mutexprofile := flag.String("mutexprofile", "", "record all mutex contention and write the profile to this file at exit")
	blockprofile := flag.String("blockprofile", "", "record all blocking events and write the profile to this file at exit")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				log.Fatal(err)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatal(err)
			}
		}()
	}
	if *mutexprofile != "" {
		// Fraction 1 records every contention event: bench runs are short
		// and the whole point is to see the resolver's lock behavior.
		runtime.SetMutexProfileFraction(1)
		defer writeLookupProfile(*mutexprofile, "mutex")
	}
	if *blockprofile != "" {
		runtime.SetBlockProfileRate(1)
		defer writeLookupProfile(*blockprofile, "block")
	}

	if *recoverMode {
		rep, ok := runRecover()
		identical := 0
		for _, r := range rep.Runs {
			if r.MatchesIdentical && r.ReissuedHITs == 0 {
				identical++
			}
		}
		writeJSON(*out, rep, fmt.Sprintf(
			"wrote %s (reload≡never-crashed: %d/%d library runs, recovery %.1fms / %.1fms; crash drill: %d/%d HITs answered pre-kill, %d reclaimed, %d judged pairs re-served, restart %.0fms, wal %dB snap %dB, identical: %v)",
			*out, identical, len(rep.Runs), rep.Runs[0].RecoveryMs, rep.Runs[1].RecoveryMs,
			rep.Crash.AnsweredBeforeKill, rep.Crash.OpenHITsBeforeKill, rep.Crash.ReclaimedAfterKill,
			rep.Crash.ReissuedJudged, rep.Crash.RestartMs, rep.Crash.WALBytes, rep.Crash.SnapshotBytes,
			rep.Crash.MatchesIdentical))
		if !ok {
			return 1
		}
		return 0
	}

	if *tenant {
		rep, ok := runTenant(*tenants, *tenantWorkers)
		writeJSON(*out, rep, fmt.Sprintf(
			"wrote %s (light p99 %.1fms baseline → %.1fms with heavy neighbor, ratio %.2f; throughput %.0f → %.0f claims/s over %d→%d workers; bit-identical: %v)",
			*out, rep.BaselineLightP99Ms, rep.ContendedLightP99Ms, rep.InterferenceRatio,
			rep.Throughput[0].ClaimsPerSec, rep.Throughput[len(rep.Throughput)-1].ClaimsPerSec,
			rep.Throughput[0].Workers, rep.Throughput[len(rep.Throughput)-1].Workers, rep.BitIdentical))
		if !ok {
			return 1
		}
		return 0
	}

	if *shard {
		rep, ok := runShard(*scaleN, *scaleTopK)
		gate := "skipped (single-core host)"
		if !rep.SpeedupGateSkipped {
			gate = fmt.Sprintf("required %.2fx", rep.RequiredSpeedup)
		}
		writeJSON(*out, rep, fmt.Sprintf(
			"wrote %s (sharded sweep best speedup %.2fx on %d CPUs, gate %s; %d equality runs)",
			*out, rep.MaxSpeedup, rep.NumCPU, gate, len(rep.EqualityRuns)))
		if !ok {
			return 1
		}
		return 0
	}

	if *scale {
		rep, ok := runScale(*baseN, *scaleN, *scaleTopK, *scaleMaxRSS)
		ok = rep.bytesThresholdOK() && ok
		writeJSON(*out, rep, fmt.Sprintf(
			"wrote %s (streamed bytes/op -%.1f%% vs materialized, ns ratio %.2f; %d records streamed in %.1fs, recall %.3f, peak RSS %.0f MB)",
			*out, rep.BytesReduction*100, rep.NsRatio, rep.ScaleRecords, rep.ScaleWallSeconds, rep.ScaleMatchRecall, rep.PeakRSSMB))
		if !ok {
			return 1
		}
		return 0
	}

	if *aggregateMode {
		rep, ok := runAggregate(defaultAggregateWorkloads(), dataset.RestaurantN(5, 600, 120))
		var parts []string
		for _, r := range rep.Runs {
			parts = append(parts, fmt.Sprintf("%s F1 %.3f→%.3f", r.Dataset, r.F1Default, r.F1MAP))
		}
		writeJSON(*out, rep, fmt.Sprintf(
			"wrote %s (sparse inversions default→MAP: %d→%d over %d unanimous pairs; %s; delta≡scratch: %v)",
			*out, rep.Sparse.InversionsDefault, rep.Sparse.InversionsMAP, rep.Sparse.UnanimousPairs,
			strings.Join(parts, "; "), rep.DeltaEqualsScratch))
		if !ok {
			return 1
		}
		return 0
	}

	if *transitive {
		rep, ok := runTransitive()
		var parts []string
		for _, r := range rep.Runs {
			parts = append(parts, fmt.Sprintf("%s %d→%d HITs (F1 %.3f→%.3f)", r.Dataset, r.HITsOff, r.HITsOn, r.F1Off, r.F1On))
		}
		writeJSON(*out, rep, fmt.Sprintf("wrote %s (%s; delta≡scratch: %v)",
			*out, strings.Join(parts, "; "), rep.DeltaEqualsScratch))
		if !ok {
			return 1
		}
		return 0
	}

	if *hybrid {
		rep, ok := runHybrid()
		var parts []string
		for _, r := range rep.Runs {
			parts = append(parts, fmt.Sprintf("%s %d→%d HITs −%.0f%% (machine %d, F1 %.3f→%.3f)",
				r.Dataset, r.HITsOff, r.HITsOn, 100*r.HITReduction, r.MachinePairs, r.F1Off, r.F1On))
		}
		writeJSON(*out, rep, fmt.Sprintf("wrote %s (%s; rerun identical: %v; shards identical: %v)",
			*out, strings.Join(parts, "; "), rep.RerunIdentical, rep.ShardsIdentical))
		if !ok {
			return 1
		}
		return 0
	}

	if *serve {
		rep, ok := runServe(*baseN, *batchN, *rounds, *reads)
		writeJSON(*out, rep, fmt.Sprintf(
			"wrote %s (append+resolve p50 %.1fms p99 %.1fms; matches read %.0f req/s p50 %.2fms; matches identical: %v)",
			*out, rep.ResolveRoundP50Ms, rep.ResolveRoundP99Ms, rep.MatchReadRPS, rep.MatchReadP50Ms, rep.MatchesIdentical))
		if !ok {
			return 1
		}
		return 0
	}

	if *delta {
		rep, ok := runDelta(*baseN, *batchN, *batches, *minSpeedup)
		writeJSON(*out, rep, fmt.Sprintf(
			"wrote %s (delta resolve %.2fx faster than from-scratch; matches identical: %v; reissued HITs: %d)",
			*out, rep.Speedup, rep.MatchesIdentical, rep.ReissuedHITs))
		if !ok {
			return 1
		}
		return 0
	}

	d := dataset.RestaurantN(1, *n, *n/8)
	tab := d.Table
	tab.TokenIDs() // warm the token cache; the legacy path re-tokenizes regardless

	base := Baseline{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Records:    *n,
	}

	const tau = 0.3
	seed := measure("simjoin/legacy-seed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			simjoin.LegacyJoin(tab, simjoin.Options{Threshold: tau})
		}
	})
	seq := measure("simjoin/interned-seq", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			simjoin.Join(tab, simjoin.Options{Threshold: tau, Parallelism: 1})
		}
	})
	par := measure("simjoin/interned-parallel", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			simjoin.Join(tab, simjoin.Options{Threshold: tau})
		}
	})
	seq.SpeedupVsSeed = float64(seed.NsPerOp) / float64(seq.NsPerOp)
	par.SpeedupVsSeed = float64(seed.NsPerOp) / float64(par.NsPerOp)
	base.Benchmarks = append(base.Benchmarks, seed, seq, par)

	// End-to-end Resolve on a crowdable slice of the dataset.
	small := dataset.RestaurantN(2, 300, 40)
	var oracle []crowder.Pair
	for _, p := range small.Matches.Slice() {
		oracle = append(oracle, crowder.Pair{A: int(p.A), B: int(p.B)})
	}
	ctab := crowder.NewTable(small.Table.Schema...)
	for i := range small.Table.Records {
		ctab.Append(small.Table.Records[i].Values...)
	}
	resolveOpts := crowder.Options{Threshold: 0.4, ClusterSize: 10, Oracle: oracle, Seed: 1}
	base.Benchmarks = append(base.Benchmarks,
		measure("resolve/end-to-end", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := crowder.Resolve(ctab, resolveOpts); err != nil {
					b.Fatal(err)
				}
			}
		}),
	)

	writeJSON(*out, base, fmt.Sprintf("wrote %s (simjoin speedup vs seed: seq %.2fx, parallel %.2fx at GOMAXPROCS=%d)",
		*out, seq.SpeedupVsSeed, par.SpeedupVsSeed, base.GoMaxProcs))
	return 0
}
