package crowd

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Journal observes queue-backend state mutations for durable session
// storage. Its methods are also the queue's transitions: QueueState
// implements them, and the store's replay applies each logged event
// through them. Callbacks fire with the queue's lock held —
// implementations must be fast, must not call back into the queue, and
// must not block on the queue's other methods. Answered is the one
// durable callback: the queue commits an answer only once it returns
// nil. The other callbacks record state a restart can rebuild by
// re-posting unpaid work, so their write failures surface from the
// store's own Log path instead.
type Journal interface {
	// Posted reports HITs opened (or topped up) at time at.
	Posted(hits []HIT, at time.Time)
	// Claimed reports a new lease.
	Claimed(token string, hit int, worker string, at, deadline time.Time)
	// Answered reports a completed assignment. late marks a lapsed-lease
	// answer credited before its replication top-up was claimed. An error
	// means the answer is not durable; the queue then leaves it
	// uncommitted.
	Answered(token string, hit int, worker string, a Assignment, late bool) error
	// Expired reports leases dropped by a sweep.
	Expired(claims []ExpiredClaim)
	// Retracted reports withdrawn HITs.
	Retracted(ids []int)
}

// ErrNotDurable wraps the journal failure of an answer the queue refused
// to commit. The worker's answer was valid; the claim stays live.
var ErrNotDurable = errors.New("crowd: answer not journaled")

// ExpiredClaim identifies one lapsed lease.
type ExpiredClaim struct {
	Token  string `json:"tok"`
	HIT    int    `json:"hit"`
	Worker string `json:"worker"`
}

// ClaimSnapshot is one lease's persisted form.
type ClaimSnapshot struct {
	Token     string    `json:"tok"`
	HIT       int       `json:"hit"`
	Worker    string    `json:"worker"`
	ClaimedAt time.Time `json:"claimed_at"`
	Deadline  time.Time `json:"deadline,omitempty"`
}

// QueueSnapshot is a queue backend's full persisted state. Claims whose
// deadlines passed while the process was down restore as-is: the first
// sweep after recovery expires them through the normal lifecycle, so a
// crash surfaces to the engine exactly like a lease lapse.
type QueueSnapshot struct {
	HITs     []HIT             `json:"hits"`
	Open     map[int]int       `json:"open"`
	Order    []int             `json:"order"`
	Answered map[int]int       `json:"answered,omitempty"`
	Touched  map[int][]string  `json:"touched,omitempty"`
	PostedAt map[int]time.Time `json:"posted_at,omitempty"`
	Workers  []string          `json:"workers,omitempty"` // index = interned worker ID
	Claims   []ClaimSnapshot   `json:"claims,omitempty"`
	Lapsed   []ClaimSnapshot   `json:"lapsed,omitempty"`
	// Collected holds completed assignments of HITs whose run had not
	// finished at the crash, keyed by HIT ID. The queue itself does not
	// consume these — they seed the ResumeState the restarted run adopts.
	Collected map[int][]Assignment `json:"collected,omitempty"`
	// NextHITID is the lowest HIT ID the process may allocate after
	// recovery; adopting recovered IDs must never collide with new ones.
	NextHITID int `json:"next_hit_id,omitempty"`
}

// QueueState is a queue backend's state and its five transitions: the
// Journal methods. The live Queue takes its decisions — which HIT a
// claim gets, whether an answer is valid or late — and applies each one
// through them; the store's replay applies each logged event through
// the same methods. A recovered queue is therefore the never-crashed one
// by construction. Not safe for concurrent use: the Queue calls it under
// its lock.
type QueueState struct {
	hits     map[int]HIT
	open     map[int]int             // HIT ID → open (unclaimed) assignments
	order    []int                   // HIT IDs in first-post order, for deterministic claims
	answered map[int]int             // HIT ID → completed assignments (next slot)
	touched  map[int]map[string]bool // HIT ID → workers barred from another claim
	postedAt map[int]time.Time       // HIT ID → first-post time (claim-wait metric)
	workers  []string                // interned worker ID → name
	workerID map[string]int
	claims   map[string]ClaimSnapshot
	// lapsed remembers expired claims of still-live HITs so an answer
	// racing the sweep — the lease lapsed between the sweep tick and the
	// HTTP handler — can still be credited instead of re-paid: as long as
	// the HIT is live, the replication top-up is unclaimed, and the worker
	// hasn't re-claimed, the late answer takes the top-up's slot.
	lapsed  map[string]ClaimSnapshot
	nextHIT int
}

var _ Journal = (*QueueState)(nil)

// NewQueueState loads a queue state from its snapshot; nil gives an
// empty state. Snapshot.Collected is not queue state and is ignored.
func NewQueueState(s *QueueSnapshot) *QueueState {
	st := &QueueState{
		hits:     make(map[int]HIT),
		open:     make(map[int]int),
		answered: make(map[int]int),
		touched:  make(map[int]map[string]bool),
		postedAt: make(map[int]time.Time),
		workerID: make(map[string]int),
		claims:   make(map[string]ClaimSnapshot),
		lapsed:   make(map[string]ClaimSnapshot),
	}
	if s == nil {
		return st
	}
	for _, h := range s.HITs {
		st.hits[h.ID] = h
	}
	for id, n := range s.Open {
		st.open[id] = n
	}
	st.order = append(st.order, s.Order...)
	for id, n := range s.Answered {
		st.answered[id] = n
	}
	for id, ws := range s.Touched {
		t := make(map[string]bool, len(ws))
		for _, w := range ws {
			t[w] = true
		}
		st.touched[id] = t
	}
	for id, at := range s.PostedAt {
		st.postedAt[id] = at
	}
	st.workers = append(st.workers, s.Workers...)
	for i, w := range s.Workers {
		st.workerID[w] = i
	}
	for _, c := range s.Claims {
		st.claims[c.Token] = c
	}
	for _, c := range s.Lapsed {
		st.lapsed[c.Token] = c
	}
	st.nextHIT = s.NextHITID
	return st
}

// Snapshot renders the state in its persisted form: fresh copies,
// deterministic ordering, Collected left to the caller.
func (st *QueueState) Snapshot() *QueueSnapshot {
	s := &QueueSnapshot{
		Open:      make(map[int]int, len(st.open)),
		Order:     append([]int(nil), st.order...),
		Answered:  make(map[int]int, len(st.answered)),
		Touched:   make(map[int][]string, len(st.touched)),
		PostedAt:  make(map[int]time.Time, len(st.postedAt)),
		Workers:   append([]string(nil), st.workers...),
		Claims:    sortedClaims(st.claims),
		Lapsed:    sortedClaims(st.lapsed),
		NextHITID: st.nextHIT,
	}
	for _, id := range st.order {
		s.HITs = append(s.HITs, st.hits[id])
	}
	for id, n := range st.open {
		s.Open[id] = n
	}
	for id, n := range st.answered {
		s.Answered[id] = n
	}
	for id, t := range st.touched {
		ws := make([]string, 0, len(t))
		for w := range t {
			ws = append(ws, w)
		}
		sort.Strings(ws)
		s.Touched[id] = ws
	}
	for id, at := range st.postedAt {
		s.PostedAt[id] = at
	}
	return s
}

func sortedClaims(m map[string]ClaimSnapshot) []ClaimSnapshot {
	var out []ClaimSnapshot
	for _, c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Token < out[j].Token })
	return out
}

// Posted opens the HITs' assignments. Re-posting a known HIT ID (a
// replication top-up) adds assignments to the existing task.
func (st *QueueState) Posted(hits []HIT, at time.Time) {
	for _, h := range hits {
		if _, known := st.hits[h.ID]; !known {
			st.hits[h.ID] = h
			st.order = append(st.order, h.ID)
			st.postedAt[h.ID] = at
		}
		st.open[h.ID] += h.Assignments
		st.nextHIT = max(st.nextHIT, h.ID+1)
	}
}

// Claimed takes one open assignment of the HIT for the worker's lease
// and bars the worker from another claim on it.
func (st *QueueState) Claimed(token string, hit int, worker string, at, deadline time.Time) {
	st.open[hit]--
	st.bar(hit, worker)
	st.claims[token] = ClaimSnapshot{Token: token, HIT: hit, Worker: worker, ClaimedAt: at, Deadline: deadline}
}

func (st *QueueState) bar(hit int, worker string) {
	if st.touched[hit] == nil {
		st.touched[hit] = make(map[string]bool)
	}
	st.touched[hit][worker] = true
}

// Answered completes an assignment. A late answer consumes the posted
// top-up's slot and re-bars its worker; an on-time one ends its claim.
// It never fails.
func (st *QueueState) Answered(token string, hit int, worker string, a Assignment, late bool) error {
	if late {
		delete(st.lapsed, token)
		st.open[hit]--
		st.bar(hit, worker)
	} else {
		delete(st.claims, token)
	}
	if _, ok := st.workerID[worker]; !ok {
		// Worker IDs are assigned densely in answer order, so a new
		// worker's ID is exactly the next slot (or, after a snapshot
		// restore, an already-allocated one). Anything else is a mangled
		// event; dropping it beats growing an unbounded sparse table.
		if a.Worker == len(st.workers) {
			st.workers = append(st.workers, worker)
			st.workerID[worker] = a.Worker
		} else if a.Worker >= 0 && a.Worker < len(st.workers) {
			st.workers[a.Worker] = worker
			st.workerID[worker] = a.Worker
		}
	}
	st.answered[hit] = max(st.answered[hit], a.Slot+1)
	return nil
}

// Expired moves lapsed leases aside for a late answer and lifts their
// workers' bars: a deserter may claim the HIT again (they still hold no
// answer on it), or the slot could become unclaimable once every worker
// has lapsed on it.
func (st *QueueState) Expired(claims []ExpiredClaim) {
	for _, c := range claims {
		mc, ok := st.claims[c.Token]
		if !ok {
			mc = ClaimSnapshot{Token: c.Token, HIT: c.HIT, Worker: c.Worker}
		}
		delete(st.claims, c.Token)
		st.lapsed[c.Token] = mc
		delete(st.touched[c.HIT], c.Worker)
	}
}

// Retracted withdraws the HITs: open assignments close, outstanding and
// lapsed claims on them are voided, and all per-HIT bookkeeping is freed.
func (st *QueueState) Retracted(ids []int) {
	for _, id := range ids {
		delete(st.hits, id)
		delete(st.open, id)
		delete(st.answered, id)
		delete(st.touched, id)
		delete(st.postedAt, id)
	}
	for tok, c := range st.claims {
		if _, live := st.hits[c.HIT]; !live {
			delete(st.claims, tok)
		}
	}
	for tok, c := range st.lapsed {
		if _, live := st.hits[c.HIT]; !live {
			delete(st.lapsed, tok)
		}
	}
	live := st.order[:0]
	for _, id := range st.order {
		if _, ok := st.hits[id]; ok {
			live = append(live, id)
		}
	}
	st.order = live
}

// ResumedHIT is one in-flight HIT recovered from a crashed run: its
// original posting (ID included) and the assignment slots already paid.
type ResumedHIT struct {
	HIT   HIT
	Slots []Assignment
}

// ResumeState carries a crashed run's in-flight HITs into the restarted
// run. HIT generation is deterministic in (pending pairs, options), so
// the restart regenerates the same task contents under fresh IDs; the
// lifecycle manager matches regenerated HITs to recovered ones by
// content and adopts the old IDs — keeping every outstanding claim,
// answer and top-up valid — instead of posting duplicates. Consumed
// single-threaded by one resolve; not safe for concurrent use.
type ResumeState struct {
	ByKey map[string]ResumedHIT
}

// Add indexes a recovered HIT by content. Slots must be sorted by Slot.
func (rs *ResumeState) Add(h HIT, slots []Assignment) {
	if rs.ByKey == nil {
		rs.ByKey = make(map[string]ResumedHIT)
	}
	rs.ByKey[ResumeKey(h)] = ResumedHIT{HIT: h, Slots: slots}
}

// Empty reports whether nothing is left to adopt.
func (rs *ResumeState) Empty() bool { return rs == nil || len(rs.ByKey) == 0 }

// take claims the recovered HIT matching h's content, if any.
func (rs *ResumeState) take(h HIT) (ResumedHIT, bool) {
	if rs == nil || rs.ByKey == nil {
		return ResumedHIT{}, false
	}
	k := ResumeKey(h)
	rh, ok := rs.ByKey[k]
	if ok {
		delete(rs.ByKey, k)
	}
	return rh, ok
}

// Leftovers drains the HITs no restarted run adopted — orphans whose
// pairs were judged (or deduced) before they completed. The caller
// retracts them to finish the crashed run's cleanup.
func (rs *ResumeState) Leftovers() []int {
	if rs == nil || len(rs.ByKey) == 0 {
		return nil
	}
	ids := make([]int, 0, len(rs.ByKey))
	for k, rh := range rs.ByKey {
		ids = append(ids, rh.HIT.ID)
		delete(rs.ByKey, k)
	}
	sort.Ints(ids)
	return ids
}

// ResumeKey renders a HIT's content — kind, pairs, records, everything
// except the ID and Ord — as a match key for adoption.
func ResumeKey(h HIT) string {
	var b strings.Builder
	fmt.Fprintf(&b, "k%d", h.Kind)
	for _, p := range h.Pairs {
		fmt.Fprintf(&b, "|%d,%d", p.A, p.B)
	}
	b.WriteByte(';')
	for _, r := range h.Records {
		fmt.Fprintf(&b, "|%d", r)
	}
	return b.String()
}
