package main

// crowd-queue: the claim plane as a write path. Several tenant tables
// on a durable crowderd post pair HITs to the queue backend; nproc
// zero-think-time worker connections drain them through POST /claim +
// POST /answer with truthful answers until every job is done.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/record"
)

// queueAssignments is the default replication factor: every HIT is
// answered by this many distinct workers.
const queueAssignments = 3

// queuePairsPerHIT is the tenants' cluster_size: pairs per pair HIT.
const queuePairsPerHIT = 2

func queueTableName(i int) string { return fmt.Sprintf("tenant%d", i) }

func queueInputs(r *run) []*input {
	ins := make([]*input, r.sz.QueueTables)
	for i := range ins {
		ins[i] = newInput(dataset.RestaurantN(r.seed+int64(i), r.sz.QueueRecords, r.sz.QueueRecords/10))
	}
	return ins
}

// queueUnit is one daemon with its tenant tables loaded.
type queueUnit struct {
	d      *daemon
	setupS float64

	drainS   float64
	accepted int
	latency  []float64 // seconds, claim sent -> answer acked
	hits     int
}

func queueSetup(r *run, ins []*input, tau float64, name string) (*queueUnit, error) {
	start := time.Now()
	dir := filepath.Join(r.tmp, name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	d, err := startDaemon(dir, false)
	if err != nil {
		return nil, err
	}
	c := newClient(d.url)
	defer c.close()
	for i, in := range ins {
		err = c.do("POST", "/tables/"+queueTableName(i), map[string]any{
			"schema": in.schema,
			"options": map[string]any{
				"threshold": tau, "hit_type": "pair", "cluster_size": queuePairsPerHIT,
				"seed": r.seed, "backend": "queue", "aggregation": "dawid-skene-map",
			},
		}, nil)
		if err == nil {
			err = c.do("POST", "/tables/"+queueTableName(i)+"/records", map[string]any{"rows": in.rows}, nil)
		}
		if err != nil {
			d.stop()
			return nil, err
		}
	}
	return &queueUnit{d: d, setupS: time.Since(start).Seconds()}, nil
}

// claimed is the part of a POST /claim answer a worker reads.
type claimed struct {
	Token string `json:"token"`
	Table string `json:"table"`
	HIT   struct {
		Pairs []struct {
			A int `json:"a"`
			B int `json:"b"`
		} `json:"pairs"`
	} `json:"hit"`
}

// drain starts one resolve per table and lets the worker connections
// answer every assignment. Workers are closed-loop with no think time;
// each rotates through its share of the worker IDs so replicated
// assignments reach distinct workers.
func (u *queueUnit) drain(r *run, ins []*input) error {
	truth := make(map[string]record.PairSet, len(ins))
	size := make(map[string]int, len(ins))
	jobs := make([]int, len(ins))
	boss := newClient(u.d.url)
	defer boss.close()
	start := time.Now()
	for i, in := range ins {
		truth[queueTableName(i)] = in.truth
		size[queueTableName(i)] = len(in.rows)
		id, err := boss.startResolve(queueTableName(i))
		if err != nil {
			return err
		}
		jobs[i] = id
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		finished = make([]*jobResult, len(ins))
	)
	// allDone polls the jobs; a worker calls it only when a claim found
	// nothing, so polling costs the drain nothing while work remains.
	allDone := func(c *client) (bool, error) {
		for i := range ins {
			mu.Lock()
			done := finished[i] != nil
			mu.Unlock()
			if done {
				continue
			}
			st, err := c.job(queueTableName(i), jobs[i])
			if err != nil {
				return false, err
			}
			switch st.State {
			case "done":
				mu.Lock()
				finished[i] = &st.Result
				mu.Unlock()
			case "queued", "running":
				return false, nil
			default:
				return false, fmt.Errorf("job %d of %s ended %s: %s", jobs[i], queueTableName(i), st.State, st.Error)
			}
		}
		return true, nil
	}

	for w := 0; w < r.clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := newClient(u.d.url)
			defer c.close()
			var lat []float64
			accepted := 0
			for turn := 0; ; turn++ {
				worker := fmt.Sprintf("w%d", (w+turn*r.clients)%r.sz.QueueWorkerIDs)
				var cl claimed
				t0 := time.Now()
				status, _, _, err := c.call("POST", "/claim", map[string]any{"worker": worker, "max_wait_ms": 20}, &cl, false)
				if err == nil && status == 404 {
					// An expired long-poll, not a failure: nothing is
					// claimable by this worker ID right now.
					done, derr := allDone(c)
					if !r.op(derr == nil, "polling jobs: %v", derr) || done {
						break
					}
					continue
				}
				if !r.op(err == nil && status == 200, "claim: HTTP %d %v", status, err) {
					break
				}
				t := truth[cl.Table]
				leak := t == nil
				answers := make([]map[string]any, len(cl.HIT.Pairs))
				for i, p := range cl.HIT.Pairs {
					leak = leak || p.A >= size[cl.Table] || p.B >= size[cl.Table]
					answers[i] = map[string]any{"a": p.A, "b": p.B, "match": t.Has(record.ID(p.A), record.ID(p.B))}
				}
				r.op(!leak, "claimed HIT from table %q names records outside it", cl.Table)
				err = c.do("POST", "/answer", map[string]any{"token": cl.Token, "answers": answers}, nil)
				if r.op(err == nil, "answer: %v", err) {
					accepted++
					lat = append(lat, time.Since(t0).Seconds())
				}
			}
			mu.Lock()
			u.accepted += accepted
			u.latency = append(u.latency, lat...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	u.drainS = time.Since(start).Seconds()
	for i, res := range finished {
		if !r.op(res != nil, "job of %s never finished", queueTableName(i)) {
			continue
		}
		u.hits += res.HITs
	}
	return nil
}

// queueCheck: exactly the required assignments were accepted, and each
// tenant's accepted matches are its own planted duplicates.
func queueCheck(r *run, ins []*input, u *queueUnit) (meanF1 float64, err error) {
	r.op(u.accepted == u.hits*queueAssignments, "accepted %d answers, %d HITs x %d assignments required", u.accepted, u.hits, queueAssignments)
	c := newClient(u.d.url)
	defer c.close()
	for i, in := range ins {
		matches, err := c.matchesOf(queueTableName(i))
		if err != nil {
			return 0, err
		}
		foreign := 0
		for _, m := range matches {
			if m.Confidence >= 0.5 && !in.truth.Has(record.ID(m.Pair.A), record.ID(m.Pair.B)) {
				foreign++
			}
		}
		r.op(foreign == 0, "%s: %d accepted matches are not in its own truth", queueTableName(i), foreign)
		meanF1 += f1(matches, in.truth) / float64(len(ins))
	}
	return meanF1, nil
}

func queueE2E(r *run) error {
	ins := queueInputs(r)
	var (
		setups, rates, p50s []float64
		samples             int
		score               float64
	)
	for total, i := 0.0, 0; total < r.seconds || i < r.sz.Setups; i++ {
		u, err := queueSetup(r, ins, r.sz.QueueTau, fmt.Sprintf("queue-%d", i))
		if err != nil {
			return err
		}
		err = u.drain(r, ins)
		if err == nil {
			score, err = queueCheck(r, ins, u)
		}
		u.d.stop()
		if err != nil {
			return err
		}
		if len(u.latency) == 0 {
			return fmt.Errorf("no assignment was answered")
		}
		setups = append(setups, u.setupS)
		rates = append(rates, float64(u.accepted)/u.drainS)
		p50s = append(p50s, 1000*median(u.latency))
		samples += len(u.latency)
		total += u.drainS
	}
	r.op(score > 0.5, "F1 %.3f against planted truth", score)

	r.gate("setup_s", median(setups))
	r.gate("assignments_per_s", median(rates))
	r.gate("claim_answer_ms_p50", median(p50s))
	r.gate("f1", score)
	r.samples("setup_s", len(setups))
	r.samples("assignments_per_s", len(rates))
	r.samples("claim_answer_ms_p50", samples)
	return nil
}

func queueTrace(r *run) error {
	ins := queueInputs(r)
	// One tenant's resolve taken apart as far as the daemon takes it
	// before the workers do: the machine half, then pair HITs.
	rp, err := tracedReplay(r, func(tr *tracer) (*replay, error) {
		id := tr.begin(-1, "replay.pipeline")
		defer tr.end(id)
		rp := machineReplay(r, tr, id, ins[0], r.sz.QueueTau, 0)
		return rp, rp.pairHITsOf(r, tr, id, queuePairsPerHIT)
	})
	if err != nil {
		return err
	}
	iso := r.tr.begin(-1, "replay.isolated")
	probeJaccard(r, iso, rp)
	journaledPerS, err := probeClaimPlane(r, iso, rp)
	r.tr.end(iso)
	if err != nil {
		return err
	}
	// The drain itself over HTTP, for its tail and the dispatcher's wait
	// quantiles. The daemon's resolves report no stage clocks; the gap
	// here is the share of the drain the journaled queue alone, at its
	// in-process rate, does not account for: HTTP, JSON, the dispatcher.
	u, err := serviceQueue(r, ins, r.sz.QueueTau)
	if err != nil {
		return err
	}
	r.setGap(ratio(float64(u.accepted), journaledPerS), u.drainS)
	return nil
}
