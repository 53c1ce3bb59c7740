package crowd

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Journal observes queue-backend state mutations for durable session
// storage. Callbacks fire with the queue's lock held — implementations
// must be fast, must not call back into the queue, and must not block on
// the queue's other methods. Answered is the one durable callback: the
// queue commits an answer only once it returns nil. The other callbacks
// record state a restart can rebuild by re-posting unpaid work, so their
// write failures surface from the store's own Log path instead.
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

// RestoreQueue rebuilds a queue backend from its snapshot. The stream of
// collected assignments starts empty — pre-crash completions live in
// snapshot.Collected and reach the engine through run adoption, not the
// stream.
func RestoreQueue(opts QueueOptions, s *QueueSnapshot) *Queue {
	q := NewQueue(opts)
	if s == nil {
		return q
	}
	for _, h := range s.HITs {
		q.hits[h.ID] = h
	}
	for id, n := range s.Open {
		q.open[id] = n
	}
	q.order = append(q.order, s.Order...)
	for id, n := range s.Answered {
		q.answered[id] = n
	}
	for id, workers := range s.Touched {
		m := make(map[string]bool, len(workers))
		for _, w := range workers {
			m[w] = true
		}
		q.touched[id] = m
	}
	for id, t := range s.PostedAt {
		q.postedAt[id] = t
	}
	for i, w := range s.Workers {
		q.workers[w] = i
	}
	for _, c := range s.Claims {
		q.claims[c.Token] = &Claimed{
			Token:     c.Token,
			HIT:       q.hits[c.HIT],
			Worker:    c.Worker,
			Deadline:  c.Deadline,
			Waited:    c.ClaimedAt.Sub(q.postedAt[c.HIT]),
			claimedAt: c.ClaimedAt,
		}
	}
	for _, c := range s.Lapsed {
		q.lapsed[c.Token] = &Claimed{
			Token:     c.Token,
			HIT:       q.hits[c.HIT],
			Worker:    c.Worker,
			Deadline:  c.Deadline,
			claimedAt: c.ClaimedAt,
		}
	}
	return q
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

// EnsureHITIDFloor raises the process-wide HIT ID allocator to at least
// n, so IDs adopted from a recovered session can never collide with IDs
// minted after recovery.
func EnsureHITIDFloor(n int) {
	hitIDMu.Lock()
	defer hitIDMu.Unlock()
	if hitIDCounter < n {
		hitIDCounter = n
	}
}
