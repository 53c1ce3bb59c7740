package main

import (
	"bufio"
	"math/rand"
	"os"
	"strconv"
	"strings"

	crowder "github.com/crowder/crowder"
	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/eval"
	"github.com/crowder/crowder/internal/record"
)

// defaultSeconds is BENCHMARK.json's run_seconds: how long the timed
// loops of one run measure when -seconds is not given.
const defaultSeconds = 12

// sizes freezes every workload's input dimensions. They are part of
// each report; changing one starts a new baseline.
type sizes struct {
	// Setups is how many times a run repeats set-up; setup_s is their
	// median.
	Setups int `json:"setups"`

	BatchRecords int     `json:"batch_records"`
	BatchDups    int     `json:"batch_dups"`
	BatchTau     float64 `json:"batch_tau"`
	ClusterSize  int     `json:"cluster_size"`

	SessionBase   int     `json:"session_base"`
	SessionRounds int     `json:"session_rounds"`
	SessionBatch  int     `json:"session_batch"`
	SessionTau    float64 `json:"session_tau"`
	// ReadSeconds is how long each session's phase B reads; Restarts is
	// how often the traced pass restarts its one session (the end-to-end
	// pass restarts every session once).
	ReadSeconds float64 `json:"read_seconds"`
	Restarts    int     `json:"restarts"`

	QueueTables    int     `json:"queue_tables"`
	QueueRecords   int     `json:"queue_records"`
	QueueTau       float64 `json:"queue_tau"`
	QueueWorkerIDs int     `json:"queue_worker_ids"`

	ScaleRecords int     `json:"scale_records"`
	ScaleDups    int     `json:"scale_dups"`
	ScaleTau     float64 `json:"scale_tau"`
	ScaleTopK    int     `json:"scale_top_k"`
}

// fullSizes were tuned on a 2-core shared host so that one run — its
// repeated set-ups, -seconds of timed loops and the correctness checks —
// ends in about half a minute. The issue's prototype sizes (20 000 /
// 10 000+100x100 / 3x7 000 / 1 000 000) are scaled down to fit that.
var fullSizes = sizes{
	Setups: 3,

	BatchRecords: 8000, BatchDups: 800, BatchTau: 0.4, ClusterSize: 10,

	SessionBase: 10000, SessionRounds: 20, SessionBatch: 100, SessionTau: 0.5,
	ReadSeconds: 1, Restarts: 5,

	QueueTables: 3, QueueRecords: 2200, QueueTau: 0.4, QueueWorkerIDs: 30,

	ScaleRecords: 300_000, ScaleDups: 15_000, ScaleTau: 0.6, ScaleTopK: 1000,
}

// toySizes keep the whole smoke test under a couple of seconds.
var toySizes = sizes{
	Setups: 1,

	BatchRecords: 300, BatchDups: 30, BatchTau: 0.4, ClusterSize: 10,

	SessionBase: 200, SessionRounds: 3, SessionBatch: 20, SessionTau: 0.5,
	ReadSeconds: 0.05, Restarts: 2,

	QueueTables: 2, QueueRecords: 120, QueueTau: 0.4, QueueWorkerIDs: 6,

	ScaleRecords: 3000, ScaleDups: 150, ScaleTau: 0.6, ScaleTopK: 50,
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB, or -1
// where /proc/self/status is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return -1
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return -1
}

// input is one generated dataset in the forms the workloads feed to the
// code under test: rows for appends, the oracle for the simulated
// crowd, the truth set for scoring.
type input struct {
	schema []string
	rows   [][]string
	oracle []crowder.Pair
	truth  record.PairSet
}

func newInput(d *dataset.Dataset) *input {
	in := &input{schema: d.Table.Schema, truth: d.Matches, rows: make([][]string, d.Table.Len())}
	for i := range d.Table.Records {
		in.rows[i] = d.Table.Records[i].Values
	}
	for _, p := range d.Matches.Slice() {
		in.oracle = append(in.oracle, crowder.Pair{A: int(p.A), B: int(p.B)})
	}
	return in
}

// shuffled permutes the records under the seed and remaps the truth.
// The generators append planted duplicates after the base records, so
// an in-order batched session would meet no matching pair until its
// last batches; the shuffle spreads both classes over the session.
func (in *input) shuffled(seed int64) *input {
	perm := rand.New(rand.NewSource(seed)).Perm(len(in.rows))
	where := make([]int, len(perm))
	out := &input{schema: in.schema, rows: make([][]string, len(perm)), truth: record.NewPairSet()}
	for pos, old := range perm {
		out.rows[pos] = in.rows[old]
		where[old] = pos
	}
	for _, p := range in.truth.Slice() {
		out.truth.Add(record.ID(where[p.A]), record.ID(where[p.B]))
	}
	for _, p := range out.truth.Slice() {
		out.oracle = append(out.oracle, crowder.Pair{A: int(p.A), B: int(p.B)})
	}
	return out
}

// table builds a fresh crowder.Table holding the first n rows.
func (in *input) table(n int) *crowder.Table {
	t := crowder.NewTable(in.schema...)
	for _, row := range in.rows[:n] {
		t.Append(row...)
	}
	return t
}

// recordTable is table for the internal layers' record.Table.
func (in *input) recordTable(n int) *record.Table {
	t := record.NewTable(in.schema...)
	for _, row := range in.rows[:n] {
		t.Append(row...)
	}
	return t
}

// f1 scores the accepted matches (confidence >= 0.5) against the truth.
func f1(matches []crowder.Match, truth record.PairSet) float64 {
	var accepted []record.Pair
	for _, m := range matches {
		if m.Confidence >= 0.5 {
			accepted = append(accepted, record.MakePair(record.ID(m.Pair.A), record.ID(m.Pair.B)))
		}
	}
	p, r := eval.PrecisionRecallAt(accepted, truth, truth.Len(), len(accepted))
	return eval.F1(p, r)
}

func sameMatches(a, b []crowder.Match) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func stageSeconds(res *crowder.Result) map[string]float64 {
	out := make(map[string]float64)
	for _, st := range res.Stages {
		out[st.Name] += st.Seconds
	}
	return out
}
