package crowd

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/record"
)

// QueueOptions configures a queue backend.
type QueueOptions struct {
	// Lease is how long a claimed assignment stays reserved for its
	// worker before it expires and is reported for a replication top-up.
	// 0 means claims never expire.
	Lease time.Duration
	// Now overrides the clock (tests inject a fake one). nil = time.Now.
	Now func() time.Time
	// Journal, when non-nil, observes every queue mutation for durable
	// session storage. Callbacks run with the queue lock held.
	Journal Journal
}

// Verdict is one worker-submitted judgment on a pair of a claimed HIT.
type Verdict struct {
	A, B  record.ID
	Match bool
}

// Claimed is a worker's hold on one assignment of an open HIT.
type Claimed struct {
	// Token authenticates the eventual Answer call.
	Token string
	// HIT is the claimed task's content.
	HIT HIT
	// Worker is the claiming worker's name.
	Worker string
	// Deadline is when the claim expires (zero when leases are disabled).
	Deadline time.Time
	// Waited is how long the HIT sat open before this claim, measured
	// from its first posting — the queueing-delay half of claim latency,
	// the number the multi-tenant fairness gate watches per tenant.
	Waited time.Duration
}

// OpenHIT describes a claimable task: its content plus how many
// assignments are still open.
type OpenHIT struct {
	HIT
	Open int
}

// Queue is the in-memory crowd backend for live deployments: HITs posted
// by the lifecycle manager are held open for external workers — typically
// talking to the crowderd HTTP API — to claim and answer. Claims carry a
// lease; a lapsed lease surfaces as an expired assignment on the Collect
// stream, which the lifecycle manager answers with a replication top-up.
// A Queue is safe for concurrent use.
type Queue struct {
	mu    sync.Mutex
	opts  QueueOptions
	st    *stream
	state *QueueState
	// wake is the claimability broadcast: closed and replaced whenever
	// work may have become claimable (a post, or a lapsed lease lifting a
	// worker's bar), so ClaimWait blocks on a channel instead of polling.
	wake chan struct{}
	// listeners are external wake hooks (the cross-session dispatcher)
	// invoked on the same claimability edges. Called with q.mu held —
	// they must be fast and must not call back into the queue.
	listeners []func()
}

// NewQueue creates an empty queue backend.
func NewQueue(opts QueueOptions) *Queue {
	return RestoreQueue(opts, nil)
}

// RestoreQueue rebuilds a queue backend from its snapshot (nil gives an
// empty queue) and raises the process-wide HIT ID floor to the
// snapshot's NextHITID, so adopted recovered IDs never collide with IDs
// minted later; the floor only moves up. The stream of collected
// assignments starts empty — pre-crash completions live in
// snapshot.Collected and reach the engine through run adoption, not the
// stream. Claims whose deadlines passed while the process was down
// expire on the first sweep, like any lapsed lease.
func RestoreQueue(opts QueueOptions, s *QueueSnapshot) *Queue {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	if s != nil {
		hitIDMu.Lock()
		hitIDCounter = max(hitIDCounter, s.NextHITID)
		hitIDMu.Unlock()
	}
	return &Queue{
		opts:  opts,
		st:    newStream(),
		state: NewQueueState(s),
		wake:  make(chan struct{}),
	}
}

// Snapshot returns the queue's state in its persisted form. Collected
// stays empty: the queue streams its completed assignments out.
func (q *Queue) Snapshot() *QueueSnapshot {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.state.Snapshot()
}

// Notify registers fn to be invoked whenever HITs may have become
// claimable (a post, or a lease expiry lifting a worker's bar). The
// cross-session dispatcher uses it to wake workers blocked in a claim
// that spans queues. fn runs with the queue's lock held: keep it to a
// channel signal or similar, and never call back into the queue.
func (q *Queue) Notify(fn func()) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.listeners = append(q.listeners, fn)
}

// wakeLocked broadcasts a claimability edge to blocked ClaimWait calls
// and external listeners; the caller holds q.mu.
func (q *Queue) wakeLocked() {
	close(q.wake)
	q.wake = make(chan struct{})
	for _, fn := range q.listeners {
		fn()
	}
}

// Post opens the HITs' assignments for claiming. Re-posting a known HIT
// ID (a replication top-up) adds assignments to the existing task.
func (q *Queue) Post(ctx context.Context, hits []HIT) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(hits) == 0 {
		return nil
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.opts.Now()
	if j := q.opts.Journal; j != nil {
		j.Posted(hits, now)
	}
	q.state.Posted(hits, now)
	q.wakeLocked()
	return nil
}

// Collect returns the answered-assignment stream.
func (q *Queue) Collect(ctx context.Context) <-chan Assignment {
	return q.st.channel(ctx)
}

// Retract withdraws the given HITs: open assignments close, outstanding
// claims are voided, and all per-HIT bookkeeping is freed. The lifecycle
// manager retracts a run's HITs — answered or not — when the run ends,
// so a long-lived queue absorbing run after run holds state only for the
// HITs currently in flight.
func (q *Queue) Retract(ids []int) {
	if len(ids) == 0 {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	if j := q.opts.Journal; j != nil {
		j.Retracted(ids)
	}
	q.state.Retracted(ids)
}

// Open lists the claimable HITs in first-post order.
func (q *Queue) Open() []OpenHIT {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweepLocked(q.opts.Now())
	var out []OpenHIT
	for _, id := range q.state.order {
		if n := q.state.open[id]; n > 0 {
			out = append(out, OpenHIT{HIT: q.state.hits[id], Open: n})
		}
	}
	return out
}

// Claim reserves one assignment of the oldest open HIT the worker is
// eligible for, starting its lease. Replicated assignments exist to
// collect *independent* judgments — Dawid–Skene's spammer resistance
// rests on it — so a worker holding a live claim on a HIT, or who has
// already answered it, never gets another of its assignments. A lapsed
// claim lifts the bar again: barring deserters forever could leave a
// topped-up slot no worker may take and hang the resolution, and a
// deserter who returns still contributes at most one answer. The second
// return is false when nothing is claimable by this worker.
func (q *Queue) Claim(worker string) (*Claimed, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.opts.Now()
	q.sweepLocked(now)
	c := q.claimLocked(worker, now)
	return c, c != nil
}

// claimLocked is Claim's core; the caller holds q.mu and has swept.
func (q *Queue) claimLocked(worker string, now time.Time) *Claimed {
	s := q.state
	for _, id := range s.order {
		if s.open[id] <= 0 || s.touched[id][worker] {
			continue
		}
		c := &Claimed{
			Token:  newToken(),
			HIT:    s.hits[id],
			Worker: worker,
			Waited: now.Sub(s.postedAt[id]),
		}
		if q.opts.Lease > 0 {
			c.Deadline = now.Add(q.opts.Lease)
		}
		if j := q.opts.Journal; j != nil {
			j.Claimed(c.Token, id, worker, now, c.Deadline)
		}
		s.Claimed(c.Token, id, worker, now, c.Deadline)
		return c
	}
	return nil
}

// ClaimWait is Claim with a bounded long-poll: when nothing is claimable
// by this worker it blocks — on the queue's wake broadcast, not a poll
// loop — until a post or a lapsed lease makes work available, maxWait
// elapses, or ctx is cancelled. maxWait <= 0 degenerates to the
// non-blocking Claim. The second return is false when the wait expired
// with nothing claimable; the error is non-nil only for ctx
// cancellation. An idle worker parked here costs zero requests and is
// woken within channel-close latency of the next post, so claim latency
// is wakeup-bound instead of poll-interval-bound.
func (q *Queue) ClaimWait(ctx context.Context, worker string, maxWait time.Duration) (*Claimed, bool, error) {
	var timeout <-chan time.Time
	if maxWait > 0 {
		t := time.NewTimer(maxWait)
		defer t.Stop()
		timeout = t.C
	}
	for {
		q.mu.Lock()
		now := q.opts.Now()
		q.sweepLocked(now)
		c := q.claimLocked(worker, now)
		wake := q.wake
		q.mu.Unlock()
		if c != nil {
			return c, true, nil
		}
		if maxWait <= 0 {
			return nil, false, nil
		}
		select {
		case <-ctx.Done():
			return nil, false, ctx.Err()
		case <-timeout:
			return nil, false, nil
		case <-wake:
		}
	}
}

// Depth reports the queue's open backlog: claimable HITs and the open
// (unclaimed) assignments across them — the per-tenant queue-depth
// gauges the metrics endpoint serves.
func (q *Queue) Depth() (hits, assignments int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweepLocked(q.opts.Now())
	for _, n := range q.state.open {
		if n > 0 {
			hits++
			assignments += n
		}
	}
	return hits, assignments
}

// ClaimLive reports whether the token still names an outstanding claim.
// The cross-session dispatcher uses it to purge its token→session index
// of claims that lapsed without an Answer.
func (q *Queue) ClaimLive(token string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweepLocked(q.opts.Now())
	_, ok := q.state.claims[token]
	return ok
}

// Answer submits a claimed assignment's verdicts. Every pair of the HIT
// must be judged; for cluster HITs the verdicts are transitively closed
// over the HIT's records (same-entity labels are an equivalence), exactly
// as the simulator treats a worker's colour labelling. The completed
// assignment is delivered on the Collect stream.
func (q *Queue) Answer(token string, verdicts []Verdict) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	now := q.opts.Now()
	q.sweepLocked(now)
	s := q.state
	c, ok := s.claims[token]
	late := false
	if !ok {
		// The lease may have lapsed between the sweep and this call — the
		// worker did the judging work; dropping the answer would re-pay
		// another worker for the same pair via the replication top-up.
		// Credit it as long as the HIT is still live, the top-up slot is
		// posted but unclaimed (open > 0), and the worker hasn't re-claimed
		// the HIT (a live re-claim means this token's work is superseded).
		// Crediting with open == 0 would add a slot beyond the replication
		// target and pay one extra assignment, so that window stays closed.
		if lc, lok := s.lapsed[token]; lok {
			if _, liveHIT := s.hits[lc.HIT]; liveHIT && s.open[lc.HIT] > 0 && !s.touched[lc.HIT][lc.Worker] {
				c, ok, late = lc, true, true
			}
		}
		if !ok {
			return fmt.Errorf("crowd: unknown or expired claim token %q", token)
		}
	}
	byPair := make(map[record.Pair]bool, len(verdicts))
	for _, v := range verdicts {
		byPair[record.MakePair(v.A, v.B)] = v.Match
	}
	h := s.hits[c.HIT]
	matches := make([]bool, len(h.Pairs))
	for i, p := range h.Pairs {
		m, ok := byPair[p]
		if !ok {
			return fmt.Errorf("crowd: answer is missing a verdict for pair (%d,%d)", p.A, p.B)
		}
		matches[i] = m
	}
	if h.Kind == ClusterKind {
		matches, _ = closeOver(h.Records, h.Pairs, matches)
	}
	wid, known := s.workerID[c.Worker]
	if !known {
		wid = len(s.workers)
	}
	a := Assignment{
		HIT:     h.ID,
		Slot:    s.answered[h.ID],
		Worker:  wid,
		Seconds: now.Sub(c.ClaimedAt).Seconds(),
	}
	a.Answers = make([]aggregate.Answer, len(h.Pairs))
	for i, p := range h.Pairs {
		a.Answers[i] = aggregate.Answer{Pair: p, Worker: wid, Match: matches[i]}
	}
	// A paid verdict is on disk before anything is acknowledged: nothing
	// below runs unless the journal took the answer, so a failed write
	// leaves the claim (or lapsed credit) live and delivers nothing. A
	// late credit is committed only here too, once the answer validated
	// and is durable: an invalid late answer must not consume the top-up
	// slot — the lapsed entry stays, and the worker may retry.
	if j := q.opts.Journal; j != nil {
		if err := j.Answered(token, h.ID, c.Worker, a, late); err != nil {
			return fmt.Errorf("%w: %w", ErrNotDurable, err)
		}
	}
	s.Answered(token, h.ID, c.Worker, a, late)
	q.st.push(a)
	return nil
}

// Sweep expires lapsed claims now; also invoked implicitly by every
// Open/Claim/Answer. A long-idle queue with no worker traffic should be
// swept periodically (crowderd runs a ticker) so the lifecycle manager
// hears about expiries promptly.
func (q *Queue) Sweep() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.sweepLocked(q.opts.Now())
}

// sweepLocked drops claims past their deadline and reports each as an
// expired assignment. The slot is not silently re-opened: the lifecycle
// manager owns replication policy and responds with a top-up Post.
func (q *Queue) sweepLocked(now time.Time) {
	if q.opts.Lease <= 0 {
		return
	}
	var expired []ExpiredClaim
	for tok, c := range q.state.claims {
		if now.After(c.Deadline) {
			expired = append(expired, ExpiredClaim{Token: tok, HIT: c.HIT, Worker: c.Worker})
		}
	}
	if len(expired) == 0 {
		return
	}
	sort.Slice(expired, func(i, j int) bool { return expired[i].Token < expired[j].Token })
	if j := q.opts.Journal; j != nil {
		j.Expired(expired)
	}
	q.state.Expired(expired)
	for _, c := range expired {
		q.st.push(Assignment{HIT: c.HIT, Worker: -1, Expired: true})
	}
	// A lifted bar can make an already-open slot claimable by the lapsed
	// worker; blocked claimers must re-check.
	q.wakeLocked()
}

// newToken returns an unguessable claim token. The token is the only
// credential authenticating an Answer call — over the crowderd HTTP API
// a predictable token would let any client hijack another worker's
// claimed assignment and forge its verdicts.
func newToken() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("crowd: claim token entropy unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}

// closeOver applies the cluster-interface semantics to raw pair
// verdicts: union-find over the records joins every matched pair, then
// each pair is re-read from the closure. A pair with an endpoint outside
// records closes to false. It also returns the sizes of the entities the
// closure partitions the (distinct) records into, in no particular
// order. The union-find runs over the records' positions in a sorted
// copy, so endpoints are found by binary search, with no map.
func closeOver(records []record.ID, pairs []record.Pair, matched []bool) (closed []bool, sizes []int) {
	sorted := slices.Sorted(slices.Values(records))
	parent := make([]int32, len(sorted))
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	// ends[2i], ends[2i+1] are pair i's endpoint positions, or -1.
	ends := make([]int32, 2*len(pairs))
	for i, p := range pairs {
		for k, r := range [2]record.ID{p.A, p.B} {
			ends[2*i+k] = -1
			if at, ok := slices.BinarySearch(sorted, r); ok {
				ends[2*i+k] = int32(at)
			}
		}
		if a, b := ends[2*i], ends[2*i+1]; matched[i] && a >= 0 && b >= 0 {
			parent[find(a)] = find(b)
		}
	}
	closed = make([]bool, len(pairs))
	for i := range pairs {
		a, b := ends[2*i], ends[2*i+1]
		closed[i] = a >= 0 && b >= 0 && find(a) == find(b)
	}
	counts := make([]int, len(sorted))
	for i := range parent {
		counts[find(int32(i))]++
	}
	return closed, slices.DeleteFunc(counts, func(c int) bool { return c == 0 })
}
