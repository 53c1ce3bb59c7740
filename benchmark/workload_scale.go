package main

// scale-join: the machine pass alone, at scale. A fresh table is
// appended and resolved machine-only with a bounded candidate list; no
// crowd, no store. Set-up computes the unbounded reference ranking.

import (
	"time"

	crowder "github.com/crowder/crowder"
	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/record"
)

func scaleOptions(r *run, maxCandidates int) crowder.Options {
	return crowder.Options{Threshold: r.sz.ScaleTau, MachineOnly: true, MaxCandidates: maxCandidates, Seed: r.seed}
}

// scaleSetup generates the table and its unbounded reference ranking,
// and checks that the reference finds every planted duplicate.
func scaleSetup(r *run) (*input, *crowder.Result, error) {
	in := newInput(dataset.ScaleN(r.seed, r.sz.ScaleRecords, r.sz.ScaleDups))
	ref, err := crowder.Resolve(in.table(len(in.rows)), scaleOptions(r, 0))
	if err != nil {
		return nil, nil, err
	}
	found := 0
	for _, m := range ref.Matches {
		if in.truth.Has(record.ID(m.Pair.A), record.ID(m.Pair.B)) {
			found++
		}
	}
	r.op(found == in.truth.Len(), "unbounded reference found %d of %d planted duplicates", found, in.truth.Len())
	return in, ref, nil
}

// scaleReplay is the workload's resolve taken apart: the machine half
// alone, its ranking bounded as the workload bounds it.
func scaleReplay(r *run, tr *tracer, in *input) *replay {
	id := tr.begin(-1, "replay.pipeline")
	defer tr.end(id)
	return machineReplay(r, tr, id, in, r.sz.ScaleTau, r.sz.ScaleTopK)
}

func scaleE2E(r *run) error {
	var (
		in     *input
		ref    *crowder.Result
		setups []float64
	)
	for i := 0; i < r.sz.Setups; i++ {
		start := time.Now()
		var err error
		if in, ref, err = scaleSetup(r); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	n, k := len(in.rows), min(r.sz.ScaleTopK, len(ref.Matches))

	var reps []float64
	for total := 0.0; total < r.seconds || len(reps) < 3; {
		start := time.Now()
		res, err := crowder.Resolve(in.table(n), scaleOptions(r, r.sz.ScaleTopK))
		d := time.Since(start).Seconds()
		if r.op(err == nil, "Resolve: %v", err) {
			r.op(sameMatches(res.Matches, ref.Matches[:k]), "rep %d: bounded top-%d differs from reference[:%d]", len(reps), k, k)
		}
		reps = append(reps, d)
		total += d
	}

	rep := median(reps)
	r.gate("setup_s", median(setups))
	r.gate("join_records_per_s", float64(n)/rep)
	r.set("op_ms_p50", rep*1000)
	// Not gated per seed like the crowd workloads' F1: it restates the
	// recall check (every candidate at this threshold is a planted
	// duplicate), printed because the driver reads every name.
	r.set("f1", f1(ref.Matches, in.truth))
	r.samples("setup_s", len(setups))
	r.samples("join_records_per_s", len(reps))
	r.detail("reference_candidates", "count", float64(len(ref.Matches)))
	return nil
}

func scaleTrace(r *run) error {
	in, ref, err := scaleSetup(r)
	if err != nil {
		return err
	}
	rp, err := tracedReplay(r, func(tr *tracer) (*replay, error) { return scaleReplay(r, tr, in), nil })
	if err != nil {
		return err
	}
	k := min(r.sz.ScaleTopK, len(ref.Matches))
	same := len(rp.scored) == k
	for i := 0; same && i < k; i++ {
		m := ref.Matches[i]
		same = int(rp.scored[i].Pair.A) == m.Pair.A && int(rp.scored[i].Pair.B) == m.Pair.B && rp.scored[i].Likelihood == m.Confidence
	}
	r.op(same, "replayed top-%d differs from reference[:%d]", k, k)

	iso := r.tr.begin(-1, "replay.isolated")
	probeJaccard(r, iso, rp)
	probeShardedJoin(r, iso, rp)
	r.tr.end(iso)

	var res *crowder.Result
	r.tr.do(-1, "crowder.resolve", func() {
		res, err = crowder.Resolve(in.table(len(in.rows)), scaleOptions(r, r.sz.ScaleTopK))
	})
	if err != nil {
		return err
	}
	r.setStages(stageSeconds(res), rp.resolveS())
	return nil
}
