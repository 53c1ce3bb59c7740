// Package dispatch is crowderd's cross-session claim plane. It turns N
// independent per-table HIT queues into one multi-tenant service:
// workers call a single claim endpoint (no table in the path) and the
// dispatcher hands them the next assignment chosen by deficit-round-
// robin across sessions, weighted by per-tenant priority — so one
// tenant's 10k-HIT resolve cannot starve another tenant's 5-HIT delta.
// Workers are the scarce resource in CrowdER's cost model; this package
// decides whose work they see next.
//
// The package also owns the service's back-pressure primitives: a
// bounded resolve-job admission queue (Admission) and per-tenant
// token-bucket HIT budgets (Bucket), plus the lock-free latency
// histograms (Histogram) that /metrics and the tenant bench both read.
package dispatch

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/crowder/crowder/internal/crowd"
)

// Session describes one registered table's queue to the dispatcher.
type Session struct {
	// Tenant is the owning tenant; fairness and budgets are per tenant.
	Tenant string
	// Table is the table name (unique server-wide).
	Table string
	// Queue is the table's claim/answer queue backend.
	Queue *crowd.Queue
	// Weight is the session's deficit-round-robin weight (min 1): how
	// many consecutive claims the session may serve per rotation. Higher
	// priority tenants set a larger weight.
	Weight int
}

// entry is a registered session plus its hot-path bookkeeping. Counters
// are atomics: the claim and answer paths never take a lock to update
// stats, and /metrics reads them without stopping the world.
type entry struct {
	Session
	claims   atomic.Int64
	answers  atomic.Int64
	waitHist *Histogram // queueing delay (post → claim) per session
}

// Dispatcher multiplexes many session queues behind one claim plane.
// Membership and the DRR cursor live behind a single short-hold mutex;
// everything measured (claims, answers, latency) is per-session atomics.
type Dispatcher struct {
	mu      sync.Mutex
	ring    []*entry          // rotation order (registration order)
	byName  map[string]*entry // table name → entry
	cursor  int               // ring index currently being served
	credit  int               // remaining claims for ring[cursor] this rotation
	byToken sync.Map          // claim token → *entry, routes global answers

	// bmu guards only the wake broadcast. Queue wake hooks fire with the
	// queue's own lock held, and the claim path holds mu while probing
	// queues — a listener that needed mu would deadlock. bmu is leaf-only.
	bmu  sync.Mutex
	wake chan struct{}
}

// NewDispatcher builds an empty claim plane.
func NewDispatcher() *Dispatcher {
	return &Dispatcher{
		byName: make(map[string]*entry),
		wake:   make(chan struct{}),
	}
}

// Register adds a session to the rotation and hooks its queue's wake
// signal so workers blocked in a cross-session Claim learn about posts
// to any table. Registering an existing table name is an error.
func (d *Dispatcher) Register(s Session) error {
	if s.Queue == nil {
		return fmt.Errorf("dispatch: session %q has no queue", s.Table)
	}
	if s.Weight < 1 {
		s.Weight = 1
	}
	e := &entry{Session: s, waitHist: &Histogram{}}
	d.mu.Lock()
	if _, dup := d.byName[s.Table]; dup {
		d.mu.Unlock()
		return fmt.Errorf("dispatch: table %q already registered", s.Table)
	}
	d.byName[s.Table] = e
	d.ring = append(d.ring, e)
	d.mu.Unlock()
	// The hook runs with the queue's lock held; it touches only bmu.
	s.Queue.Notify(d.broadcast)
	// A registered queue may already hold open HITs.
	d.broadcast()
	return nil
}

// broadcast wakes every worker blocked in Claim so they re-probe the
// rotation. Leaf lock only — safe to call from queue wake hooks.
func (d *Dispatcher) broadcast() {
	d.bmu.Lock()
	close(d.wake)
	d.wake = make(chan struct{})
	d.bmu.Unlock()
}

func (d *Dispatcher) wakeCh() <-chan struct{} {
	d.bmu.Lock()
	ch := d.wake
	d.bmu.Unlock()
	return ch
}

// tryClaim runs one deficit-round-robin pass: starting at the cursor,
// probe each session's queue until a claim lands. A session serves up
// to Weight consecutive claims before the cursor moves on — the weighted
// fairness that keeps a heavy tenant from monopolizing the pool — and an
// unclaimable session forfeits the rest of its turn.
func (d *Dispatcher) tryClaim(worker string) (*crowd.Claimed, *entry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.ring)
	if n == 0 {
		return nil, nil
	}
	if d.cursor >= n {
		d.cursor, d.credit = 0, 0
	}
	if d.credit <= 0 {
		d.credit = d.ring[d.cursor].Weight
	}
	for probed := 0; probed < n; probed++ {
		e := d.ring[d.cursor]
		if c, ok := e.Queue.Claim(worker); ok {
			d.credit--
			if d.credit <= 0 {
				d.advanceLocked()
			}
			return c, e
		}
		d.advanceLocked()
	}
	return nil, nil
}

// advanceLocked moves the cursor to the next session, refreshing credit.
func (d *Dispatcher) advanceLocked() {
	d.cursor++
	if d.cursor >= len(d.ring) {
		d.cursor = 0
	}
	d.credit = d.ring[d.cursor].Weight
}

// Claim hands the worker the next assignment across all sessions, long-
// polling up to maxWait when nothing is claimable (maxWait <= 0 is
// non-blocking). The chosen session is returned so the transport can
// tell the worker which table the HIT belongs to. The bool is false
// when the wait expired empty; the error reports ctx cancellation only.
func (d *Dispatcher) Claim(ctx context.Context, worker string, maxWait time.Duration) (*crowd.Claimed, Session, bool, error) {
	var timeout <-chan time.Time
	if maxWait > 0 {
		t := time.NewTimer(maxWait)
		defer t.Stop()
		timeout = t.C
	}
	for {
		// Snapshot the wake channel before probing: a post that lands
		// between the probe and the select closes this snapshot, so the
		// wakeup cannot be lost.
		wake := d.wakeCh()
		if c, e := d.tryClaim(worker); c != nil {
			e.claims.Add(1)
			e.waitHist.Record(c.Waited)
			d.byToken.Store(c.Token, e)
			return c, e.Session, true, nil
		}
		if maxWait <= 0 {
			return nil, Session{}, false, nil
		}
		select {
		case <-ctx.Done():
			return nil, Session{}, false, ctx.Err()
		case <-timeout:
			return nil, Session{}, false, nil
		case <-wake:
		}
	}
}

// Answer routes a globally-claimed token to its session's queue. Tokens
// issued by per-table claims are not known here; those answers go to
// the table's own answer endpoint, which stays supported.
func (d *Dispatcher) Answer(token string, verdicts []crowd.Verdict) (Session, error) {
	v, ok := d.byToken.Load(token)
	if !ok {
		return Session{}, fmt.Errorf("dispatch: unknown or expired claim token %q", token)
	}
	e := v.(*entry)
	if err := e.Queue.Answer(token, verdicts); err != nil {
		// Lease lapsed (or the run was retracted) between claim and
		// answer; the token is dead either way — unless the journal
		// failed, which leaves the claim live.
		if !errors.Is(err, crowd.ErrNotDurable) {
			d.byToken.Delete(token)
		}
		return Session{}, err
	}
	d.byToken.Delete(token)
	e.answers.Add(1)
	return e.Session, nil
}

// PurgeTokens drops token routes whose claims lapsed without an answer.
// crowderd's sweep ticker calls it so the token index tracks the queues'
// own lease expiry instead of growing without bound.
func (d *Dispatcher) PurgeTokens() {
	d.byToken.Range(func(k, v any) bool {
		if !v.(*entry).Queue.ClaimLive(k.(string)) {
			d.byToken.Delete(k)
		}
		return true
	})
}

// SessionStats is one session's /metrics snapshot.
type SessionStats struct {
	Tenant          string  `json:"tenant"`
	Table           string  `json:"table"`
	Weight          int     `json:"weight"`
	Claims          int64   `json:"claims"`
	Answers         int64   `json:"answers"`
	OpenHITs        int     `json:"open_hits"`
	OpenAssignments int     `json:"open_assignments"`
	ClaimWaitP50Ms  float64 `json:"claim_wait_p50_ms"`
	ClaimWaitP99Ms  float64 `json:"claim_wait_p99_ms"`
	ClaimWaitMeanMs float64 `json:"claim_wait_mean_ms"`
}

// Stats snapshots every registered session, sorted by tenant then
// table for stable output.
func (d *Dispatcher) Stats() []SessionStats {
	d.mu.Lock()
	ring := make([]*entry, len(d.ring))
	copy(ring, d.ring)
	d.mu.Unlock()
	out := make([]SessionStats, 0, len(ring))
	for _, e := range ring {
		hits, asg := e.Queue.Depth()
		out = append(out, SessionStats{
			Tenant:          e.Tenant,
			Table:           e.Table,
			Weight:          e.Weight,
			Claims:          e.claims.Load(),
			Answers:         e.answers.Load(),
			OpenHITs:        hits,
			OpenAssignments: asg,
			ClaimWaitP50Ms:  float64(e.waitHist.Quantile(0.50)) / float64(time.Millisecond),
			ClaimWaitP99Ms:  float64(e.waitHist.Quantile(0.99)) / float64(time.Millisecond),
			ClaimWaitMeanMs: float64(e.waitHist.Mean()) / float64(time.Millisecond),
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Tenant != out[j].Tenant {
			return out[i].Tenant < out[j].Tenant
		}
		return out[i].Table < out[j].Table
	})
	return out
}
