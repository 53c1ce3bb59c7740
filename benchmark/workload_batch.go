package main

// batch-cluster: the paper's own pipeline. crowder.Resolve from scratch
// on a Restaurant-style table — prune at tau, two-tiered cluster HITs,
// simulated crowd, Dawid–Skene — everything else default.

import (
	"time"

	crowder "github.com/crowder/crowder"
	"github.com/crowder/crowder/internal/dataset"
)

func batchOptions(r *run, in *input) crowder.Options {
	return crowder.Options{
		Threshold:   r.sz.BatchTau,
		HITType:     crowder.ClusterHITs,
		ClusterSize: r.sz.ClusterSize,
		Generator:   crowder.GenTwoTiered,
		Seed:        r.seed,
		Oracle:      in.oracle,
	}
}

// batchSetup generates the table and resolves it once: the reference
// every timed rep must reproduce, and the warm-up.
func batchSetup(r *run) (*input, *crowder.Result, error) {
	in := newInput(dataset.RestaurantN(r.seed, r.sz.BatchRecords, r.sz.BatchDups))
	ref, err := crowder.Resolve(in.table(len(in.rows)), batchOptions(r, in))
	return in, ref, err
}

// batchReplay is the workload's resolve taken apart: the machine half,
// then cluster HITs, the simulated crowd and Dawid–Skene.
func batchReplay(r *run, tr *tracer, in *input) (*replay, error) {
	id := tr.begin(-1, "replay.pipeline")
	defer tr.end(id)
	rp := machineReplay(r, tr, id, in, r.sz.BatchTau, 0)
	return rp, rp.clusterCrowd(r, tr, id)
}

// checkBatchReplay: the HITs a module-by-module replay generates for
// the same candidates satisfy Definition 1 (clusterCrowd validates the
// cover) and are as many as Resolve issued, and aggregating the
// replayed crowd's answers reproduces Resolve's match list exactly.
func checkBatchReplay(r *run, rp *replay, ref *crowder.Result) {
	r.op(len(rp.clusterHITs) == ref.HITs, "replayed %d HITs, Resolve issued %d", len(rp.clusterHITs), ref.HITs)
	r.op(sameMatches(rp.matches, ref.Matches), "module-by-module replay does not reproduce Resolve's matches")
}

func batchE2E(r *run) error {
	var (
		in     *input
		ref    *crowder.Result
		setups []float64
	)
	for i := 0; i < r.sz.Setups; i++ {
		start := time.Now()
		var err error
		if in, ref, err = batchSetup(r); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	n := len(in.rows)
	rp, err := batchReplay(r, r.tr, in)
	if err != nil {
		return err
	}
	checkBatchReplay(r, rp, ref)

	var reps []float64
	for total := 0.0; total < r.seconds || len(reps) < 3; {
		start := time.Now()
		res, err := crowder.Resolve(in.table(n), batchOptions(r, in))
		d := time.Since(start).Seconds()
		if r.op(err == nil, "Resolve: %v", err) {
			r.op(res.HITs == ref.HITs && sameMatches(res.Matches, ref.Matches), "rep %d differs from the reference resolve", len(reps))
		}
		reps = append(reps, d)
		total += d
	}

	score := f1(ref.Matches, in.truth)
	r.op(score > 0.5, "F1 %.3f against planted truth", score)
	rep := median(reps)
	r.gate("setup_s", median(setups))
	r.gate("resolve_records_per_s", float64(n)/rep)
	r.set("op_ms_p50", rep*1000)
	r.gate("crowd_hits_per_1k_records", 1000*float64(ref.HITs)/float64(n))
	r.gate("f1", score)
	r.samples("setup_s", len(setups))
	r.samples("resolve_records_per_s", len(reps))
	r.detail("candidates", "count", float64(ref.Candidates))
	return nil
}

func batchTrace(r *run) error {
	in, ref, err := batchSetup(r)
	if err != nil {
		return err
	}
	rp, err := tracedReplay(r, func(tr *tracer) (*replay, error) { return batchReplay(r, tr, in) })
	if err != nil {
		return err
	}
	checkBatchReplay(r, rp, ref)

	iso := r.tr.begin(-1, "replay.isolated")
	probeJaccard(r, iso, rp)
	probeShardedJoin(r, iso, rp)
	err = probeGraphPacking(r, iso, rp)
	probeAggregators(r, iso, rp, "dawid_skene")
	r.tr.end(iso)
	if err != nil {
		return err
	}

	var res *crowder.Result
	r.tr.do(-1, "crowder.resolve", func() { res, err = crowder.Resolve(in.table(len(in.rows)), batchOptions(r, in)) })
	if err != nil {
		return err
	}
	r.setStages(stageSeconds(res), rp.resolveS())
	return nil
}
