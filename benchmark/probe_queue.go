package main

// The claim plane's layers in process — the queue bare and journaled,
// the journal's fsynced event, the dispatcher — and crowd-queue's drain
// over HTTP for the service-side tails.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/dispatch"
	"github.com/crowder/crowder/internal/store"
)

const probeLease = 5 * time.Minute

// probeClaimPlane drains the replay's pair HITs through a bare queue, a
// journaled queue and a dispatcher over three queues. It returns the
// journaled queue's claim+answer pairs per second.
func probeClaimPlane(r *run, parent int, rp *replay) (journaled float64, err error) {
	lists := pairLists(rp.pairHITs)
	newHITs := func() []crowd.HIT { return crowd.PairHITsFromGen(lists, queueAssignments) }

	bare, _, err := queueLoop(r, parent, "crowd.queue_loop", crowd.NewQueue(crowd.QueueOptions{Lease: probeLease}), newHITs(), rp.in)
	if err != nil {
		return 0, err
	}
	r.set("crowd.queue_ops_per_s", bare)

	dir := filepath.Join(r.tmp, "journal-probe")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, err
	}
	fl, _, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, err
	}
	defer fl.Close()
	journaled, answers, err := queueLoop(r, parent, "crowd.queue_journaled_loop",
		crowd.NewQueue(crowd.QueueOptions{Lease: probeLease, Journal: store.QueueJournal(fl)}), newHITs(), rp.in)
	if err != nil {
		return 0, err
	}
	r.set("crowd.queue_journaled_ops_per_s", journaled)

	// One journaled answer event on its own: the fsynced write each
	// accepted assignment costs.
	var eventUs []float64
	for i := 0; i < min(300, len(answers)); i++ {
		ev := &store.QueueAnswered{Token: fmt.Sprintf("probe-%d", i), HIT: i, Worker: "w0",
			A: crowd.Assignment{HIT: i, Answers: answers[i : i+1]}}
		eventUs = append(eventUs, 1e6*r.tr.do(parent, "store.journal_event", func() { err = fl.Log(ev) }))
		if err != nil {
			return 0, fmt.Errorf("journal event: %w", err)
		}
	}
	r.set("store.journal_event_us_p50", median(eventUs))
	r.samples("store.journal_event_us_p50", len(eventUs))

	// The dispatcher over three sessions, each holding a third of the
	// HITs: the cross-session claim plane without HTTP or a journal.
	d := dispatch.NewDispatcher()
	ctx := context.Background()
	all := newHITs()
	const sessions = 3
	for i := 0; i < sessions; i++ {
		q := crowd.NewQueue(crowd.QueueOptions{Lease: probeLease})
		if err := q.Post(ctx, all[len(all)*i/sessions:len(all)*(i+1)/sessions]); err != nil {
			return 0, err
		}
		if err := d.Register(dispatch.Session{Tenant: queueTableName(i), Table: queueTableName(i), Queue: q}); err != nil {
			return 0, err
		}
	}
	done, s, err := claimLoop(r, parent, "dispatch.claim_answer", len(all)*queueAssignments, rp.in,
		func(worker string) (*crowd.Claimed, bool, error) {
			c, _, ok, err := d.Claim(ctx, worker, 0)
			return c, ok, err
		},
		func(token string, v []crowd.Verdict) error {
			_, err := d.Answer(token, v)
			return err
		})
	if err != nil {
		return 0, err
	}
	r.set("dispatch.claim_answer_us", ratio(s*1e6, float64(done)))
	return journaled, nil
}

func workerName(turn int, r *run) string { return fmt.Sprintf("w%d", turn%r.sz.QueueWorkerIDs) }

// claimLoop runs claim -> truthful answer in process, as one span, until
// want assignments are answered, rotating worker names as the HTTP
// workers do (a worker may take each HIT once). It returns how many it
// answered and the seconds taken; falling short is a failed operation.
func claimLoop(r *run, parent int, span string, want int, in *input,
	claim func(worker string) (*crowd.Claimed, bool, error), answer func(token string, v []crowd.Verdict) error) (done int, seconds float64, err error) {
	seconds = r.tr.do(parent, span, func() {
		for turn := 0; done < want && turn < want*r.sz.QueueWorkerIDs; turn++ {
			c, ok, cerr := claim(workerName(turn, r))
			if cerr != nil {
				err = cerr
				return
			}
			if !ok {
				continue
			}
			if err = answer(c.Token, truthful(c, in)); err != nil {
				return
			}
			done++
		}
	})
	if err == nil {
		r.op(done == want, "%s: answered %d of %d assignments", span, done, want)
	}
	return done, seconds, err
}

// truthful answers a claimed HIT from the truth set.
func truthful(c *crowd.Claimed, in *input) []crowd.Verdict {
	out := make([]crowd.Verdict, len(c.HIT.Pairs))
	for i, p := range c.HIT.Pairs {
		out[i] = crowd.Verdict{A: p.A, B: p.B, Match: in.truth.Has(p.A, p.B)}
	}
	return out
}

// queueLoop posts the HITs to q and drains them in process. Returns
// claim+answer pairs per second and the collected answers.
func queueLoop(r *run, parent int, name string, q *crowd.Queue, hits []crowd.HIT, in *input) (opsPerS float64, answers []aggregate.Answer, err error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := q.Post(ctx, hits); err != nil {
		return 0, nil, err
	}
	done, s, err := claimLoop(r, parent, name, len(hits)*queueAssignments, in,
		func(worker string) (*crowd.Claimed, bool, error) {
			c, ok := q.Claim(worker)
			return c, ok, nil
		}, q.Answer)
	if err != nil {
		return 0, nil, err
	}
	stream := q.Collect(ctx)
	for i := 0; i < done; i++ {
		a := <-stream
		answers = append(answers, a.Answers...)
	}
	return ratio(float64(done), s), answers, nil
}

// serviceQueue is the workload's drain once more: the tenants on one
// durable daemon drained by the worker connections, for the
// claim-to-ack tail and the dispatcher's own wait quantiles from GET
// /metrics, the numbers an operator's dashboard graphs.
func serviceQueue(r *run, ins []*input, tau float64) (*queueUnit, error) {
	u, err := queueSetup(r, ins, tau, "queue-trace")
	if err != nil {
		return nil, err
	}
	defer u.d.stop()
	r.tr.do(-1, "service.queue_drain", func() { err = u.drain(r, ins) })
	if err != nil {
		return nil, err
	}
	if _, err := queueCheck(r, ins, u); err != nil {
		return nil, err
	}
	latMs := make([]float64, len(u.latency))
	for i, s := range u.latency {
		latMs[i] = 1000 * s
	}
	r.set("service.claim_answer_ms_p99", capQuantile(latMs, 0.99))
	r.samples("service.claim_answer_ms_p99", len(latMs))

	c := newClient(u.d.url)
	defer c.close()
	var metrics struct {
		Sessions []struct {
			ClaimWaitP50Ms float64 `json:"claim_wait_p50_ms"`
			ClaimWaitP99Ms float64 `json:"claim_wait_p99_ms"`
		} `json:"sessions"`
	}
	if err := c.do("GET", "/metrics", nil, &metrics); err != nil {
		return nil, err
	}
	p50, p99 := 0.0, 0.0
	for _, s := range metrics.Sessions {
		p50, p99 = max(p50, s.ClaimWaitP50Ms), max(p99, s.ClaimWaitP99Ms)
	}
	r.set("dispatch.claim_wait_ms_p50", p50)
	r.set("dispatch.claim_wait_ms_p99", p99)
	return u, nil
}
