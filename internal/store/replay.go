package store

import (
	"fmt"
	"sort"
	"time"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/simjoin"
	"github.com/crowder/crowder/internal/verdicts"
)

// replayState is the session state one generation on disk replays into.
// Open builds one to hand the engine its recovered state; compaction
// builds one to serialize as the next snapshot. Neither keeps it.
type replayState struct {
	meta       Meta
	hasMeta    bool
	rows       []Row
	boundaries []int // absorb boundaries, strictly increasing
	pending    []simjoin.ScoredPair
	cache      *verdicts.Cache
	q          queueMirror
	events     int
}

func newReplayState() *replayState {
	return &replayState{cache: verdicts.NewCache()}
}

// apply folds one event into the state.
func (st *replayState) apply(ev Event) error {
	st.events++
	switch e := ev.(type) {
	case *Meta:
		if e.Schema != nil {
			st.meta.Schema = e.Schema
		}
		if e.Aggregator != "" {
			st.meta.Aggregator = e.Aggregator
		}
		if e.Config != nil {
			st.meta.Config = e.Config
		}
		if e.Spent != 0 {
			st.meta.Spent = e.Spent
		}
		if e.Model != nil {
			st.meta.Model = e.Model
		}
		st.hasMeta = true
	case *Append:
		st.rows = append(st.rows, e.Rows...)
	case *Prune:
		last := 0
		if len(st.boundaries) > 0 {
			last = st.boundaries[len(st.boundaries)-1]
		}
		if e.Absorbed > last {
			st.boundaries = append(st.boundaries, e.Absorbed)
		}
		st.pending = append(st.pending, e.Discovered...)
	case *Commit:
		for _, op := range e.Ops {
			switch {
			case op.Put != nil:
				st.cache.Put(op.Put.Pair, op.Put.Likelihood)
			case op.Deduce != nil:
				st.cache.PutDeduced(op.Deduce.Likelihood, op.Deduce.D)
			case op.Machine != nil:
				st.cache.PutMachine(op.Machine.Pair, op.Machine.Likelihood, op.Machine.Posterior)
			case op.Answers != nil:
				st.cache.AddAnswers(op.Answers)
			case op.Partial != nil:
				st.cache.AddPartialAnswers(op.Partial)
			case op.Posteriors != nil:
				post := make(aggregate.Posterior, len(op.Posteriors))
				for _, pv := range op.Posteriors {
					post[pv.Pair] = pv.Val
				}
				st.cache.SetPosteriors(post)
			case op.ClearPending:
				st.pending = nil
			}
		}
	case *Pending:
		st.pending = append(st.pending[:0], e.Scored...)
	case *CacheState:
		st.cache = verdicts.RestoreCache(e.Entries, e.Partials)
	case *QueuePosted:
		st.q.applyPosted(e)
	case *QueueClaimed:
		st.q.applyClaimed(e)
	case *QueueAnswered:
		st.q.applyAnswered(e)
	case *QueueExpired:
		st.q.applyExpired(e)
	case *QueueRetracted:
		st.q.applyRetracted(e)
	case *QueueState:
		st.q.restore(&e.S)
	default:
		return fmt.Errorf("store: replay: unhandled event %T", ev)
	}
	return nil
}

// snapshotEvents serializes the state as a compacted event stream —
// replaying it reproduces the state exactly.
func (st *replayState) snapshotEvents() []Event {
	var evs []Event
	if st.hasMeta {
		m := st.meta
		evs = append(evs, &m)
	}
	// Chunk rows so no single frame grows unboundedly with table size.
	const rowChunk = 4096
	for lo := 0; lo < len(st.rows); lo += rowChunk {
		hi := lo + rowChunk
		if hi > len(st.rows) {
			hi = len(st.rows)
		}
		evs = append(evs, &Append{Rows: st.rows[lo:hi]})
	}
	for _, b := range st.boundaries {
		evs = append(evs, &Prune{Absorbed: b})
	}
	if len(st.pending) > 0 {
		evs = append(evs, &Pending{Scored: st.pending})
	}
	if st.cache.Len() > 0 || st.cache.PartialLen() > 0 {
		entries, partials := st.cache.Dump()
		evs = append(evs, &CacheState{Entries: entries, Partials: partials})
	}
	if st.q.active {
		evs = append(evs, &QueueState{S: *st.q.snapshot()})
	}
	return evs
}

// Recovered is everything a session needs to resume after a restart.
type Recovered struct {
	// Meta is the merged session identity (schema, aggregator, config),
	// the latest spend total and the latest journaled router model.
	Meta Meta
	// Rows are the appended records in order.
	Rows []Row
	// Boundaries are the similarity-index absorb points, in order.
	Boundaries []int
	// Pending are the candidate pairs awaiting crowdsourcing.
	Pending []simjoin.ScoredPair
	// Cache is the verdict cache — paid answers, provenance, deduction
	// proofs, machine verdicts, partial fragments, plus the in-flight
	// answers of the crashed run folded in as partials. Its aggregated
	// and deduced posteriors are not authoritative (see CacheState).
	Cache *verdicts.Cache
	// Queue is the queue backend's state, or nil if the session never
	// posted to a queue.
	Queue *crowd.QueueSnapshot
	// Resume carries the crashed run's in-flight HITs for adoption by the
	// restarted resolve; nil when nothing was in flight.
	Resume *crowd.ResumeState
	// NextHITID is the floor for the process-wide HIT ID allocator.
	NextHITID int
	// Events is the number of events replayed (snapshot + WAL tail).
	Events int
	// WALBytes and SnapshotBytes report what recovery read.
	WALBytes      int64
	SnapshotBytes int64
}

// Empty reports a fresh session (no logged state at all).
func (r *Recovered) Empty() bool {
	return r == nil || (!r.hasState() && r.Events == 0)
}

func (r *Recovered) hasState() bool {
	return len(r.Rows) > 0 || r.Cache.Len() > 0 || r.Cache.PartialLen() > 0 ||
		len(r.Pending) > 0 || r.Queue != nil || len(r.Meta.Schema) > 0
}

// recovered builds the engine-facing view. It consumes the state: rows,
// boundaries, pending and the cache are handed over, not copied.
func (st *replayState) recovered() *Recovered {
	rec := &Recovered{
		Meta:       st.meta,
		Rows:       st.rows,
		Boundaries: st.boundaries,
		Pending:    st.pending,
		Cache:      st.cache,
		Events:     st.events,
	}
	if st.q.active {
		rec.Queue = st.q.snapshot()
		rec.NextHITID = st.q.nextHIT
		// In-flight HITs of the crashed run: content-indexed for adoption,
		// and their paid answers recorded as partial fragments so the work
		// is never invisible — the restarted run's completions supersede
		// them through the normal commit path.
		rs := &crowd.ResumeState{}
		var inflight []aggregate.Answer
		for _, id := range rec.Queue.Order {
			h, ok := st.q.hits[id]
			if !ok {
				continue
			}
			slots := append([]crowd.Assignment(nil), st.q.collected[id]...)
			sort.Slice(slots, func(i, j int) bool { return slots[i].Slot < slots[j].Slot })
			rs.Add(h, slots)
			for _, a := range slots {
				inflight = append(inflight, a.Answers...)
			}
		}
		if !rs.Empty() {
			rec.Resume = rs
		}
		if len(inflight) > 0 {
			rec.Cache.AddPartialAnswers(inflight)
		}
	}
	return rec
}

// queueMirror replays queue events into the same state the live Queue
// holds, plus the collected in-flight assignments the live queue already
// streamed out.
type queueMirror struct {
	active    bool
	hits      map[int]crowd.HIT
	open      map[int]int
	order     []int
	answered  map[int]int
	touched   map[int]map[string]bool
	postedAt  map[int]time.Time
	workers   []string
	workerIdx map[string]int
	claims    map[string]crowd.ClaimSnapshot
	lapsed    map[string]crowd.ClaimSnapshot
	collected map[int][]crowd.Assignment
	nextHIT   int
}

func (m *queueMirror) init() {
	if m.active {
		return
	}
	m.active = true
	m.hits = make(map[int]crowd.HIT)
	m.open = make(map[int]int)
	m.answered = make(map[int]int)
	m.touched = make(map[int]map[string]bool)
	m.postedAt = make(map[int]time.Time)
	m.workerIdx = make(map[string]int)
	m.claims = make(map[string]crowd.ClaimSnapshot)
	m.lapsed = make(map[string]crowd.ClaimSnapshot)
	m.collected = make(map[int][]crowd.Assignment)
}

func (m *queueMirror) applyPosted(e *QueuePosted) {
	m.init()
	for _, h := range e.HITs {
		if _, known := m.hits[h.ID]; !known {
			m.hits[h.ID] = h
			m.order = append(m.order, h.ID)
			m.postedAt[h.ID] = e.At
		}
		m.open[h.ID] += h.Assignments
		if h.ID+1 > m.nextHIT {
			m.nextHIT = h.ID + 1
		}
	}
}

func (m *queueMirror) applyClaimed(e *QueueClaimed) {
	m.init()
	m.open[e.HIT]--
	if m.touched[e.HIT] == nil {
		m.touched[e.HIT] = make(map[string]bool)
	}
	m.touched[e.HIT][e.Worker] = true
	m.claims[e.Token] = crowd.ClaimSnapshot{Token: e.Token, HIT: e.HIT, Worker: e.Worker, ClaimedAt: e.At, Deadline: e.Deadline}
}

func (m *queueMirror) applyAnswered(e *QueueAnswered) {
	m.init()
	if e.Late {
		// The live queue consumed the top-up slot and re-barred the worker.
		delete(m.lapsed, e.Token)
		m.open[e.HIT]--
		if m.touched[e.HIT] == nil {
			m.touched[e.HIT] = make(map[string]bool)
		}
		m.touched[e.HIT][e.Worker] = true
	} else {
		delete(m.claims, e.Token)
	}
	if _, ok := m.workerIdx[e.Worker]; !ok {
		// A live queue assigns worker ids densely in answer order, so a
		// new worker's id is exactly the next slot (or, after a snapshot
		// restore, an already-allocated one). Anything else is a mangled
		// event; dropping it beats growing an unbounded sparse table.
		if e.A.Worker == len(m.workers) {
			m.workers = append(m.workers, e.Worker)
			m.workerIdx[e.Worker] = e.A.Worker
		} else if e.A.Worker >= 0 && e.A.Worker < len(m.workers) {
			m.workers[e.A.Worker] = e.Worker
			m.workerIdx[e.Worker] = e.A.Worker
		}
	}
	if e.A.Slot+1 > m.answered[e.HIT] {
		m.answered[e.HIT] = e.A.Slot + 1
	}
	m.collected[e.HIT] = append(m.collected[e.HIT], e.A)
}

func (m *queueMirror) applyExpired(e *QueueExpired) {
	m.init()
	for _, c := range e.Claims {
		mc, ok := m.claims[c.Token]
		if !ok {
			mc = crowd.ClaimSnapshot{Token: c.Token, HIT: c.HIT, Worker: c.Worker}
		}
		delete(m.claims, c.Token)
		m.lapsed[c.Token] = mc
		if t := m.touched[c.HIT]; t != nil {
			delete(t, c.Worker)
		}
	}
}

func (m *queueMirror) applyRetracted(e *QueueRetracted) {
	m.init()
	for _, id := range e.IDs {
		delete(m.hits, id)
		delete(m.open, id)
		delete(m.answered, id)
		delete(m.touched, id)
		delete(m.postedAt, id)
		delete(m.collected, id)
	}
	for tok, c := range m.claims {
		if _, live := m.hits[c.HIT]; !live {
			delete(m.claims, tok)
		}
	}
	for tok, c := range m.lapsed {
		if _, live := m.hits[c.HIT]; !live {
			delete(m.lapsed, tok)
		}
	}
	live := m.order[:0]
	for _, id := range m.order {
		if _, ok := m.hits[id]; ok {
			live = append(live, id)
		}
	}
	m.order = live
}

// restore wholesale-loads a snapshot.
func (m *queueMirror) restore(s *crowd.QueueSnapshot) {
	*m = queueMirror{}
	m.init()
	for _, h := range s.HITs {
		m.hits[h.ID] = h
	}
	for id, n := range s.Open {
		m.open[id] = n
	}
	m.order = append(m.order, s.Order...)
	for id, n := range s.Answered {
		m.answered[id] = n
	}
	for id, ws := range s.Touched {
		t := make(map[string]bool, len(ws))
		for _, w := range ws {
			t[w] = true
		}
		m.touched[id] = t
	}
	for id, at := range s.PostedAt {
		m.postedAt[id] = at
	}
	m.workers = append(m.workers, s.Workers...)
	for i, w := range s.Workers {
		m.workerIdx[w] = i
	}
	for _, c := range s.Claims {
		m.claims[c.Token] = c
	}
	for _, c := range s.Lapsed {
		m.lapsed[c.Token] = c
	}
	for id, as := range s.Collected {
		m.collected[id] = append([]crowd.Assignment(nil), as...)
	}
	m.nextHIT = s.NextHITID
}

// snapshot renders the mirror as a crowd.QueueSnapshot (fresh copies,
// deterministic ordering).
func (m *queueMirror) snapshot() *crowd.QueueSnapshot {
	s := &crowd.QueueSnapshot{
		Open:      make(map[int]int, len(m.open)),
		Order:     append([]int(nil), m.order...),
		Answered:  make(map[int]int, len(m.answered)),
		Touched:   make(map[int][]string, len(m.touched)),
		PostedAt:  make(map[int]time.Time, len(m.postedAt)),
		Workers:   append([]string(nil), m.workers...),
		Collected: make(map[int][]crowd.Assignment, len(m.collected)),
		NextHITID: m.nextHIT,
	}
	for _, id := range m.order {
		s.HITs = append(s.HITs, m.hits[id])
	}
	for id, n := range m.open {
		s.Open[id] = n
	}
	for id, n := range m.answered {
		s.Answered[id] = n
	}
	for id, t := range m.touched {
		ws := make([]string, 0, len(t))
		for w := range t {
			ws = append(ws, w)
		}
		sort.Strings(ws)
		s.Touched[id] = ws
	}
	for id, at := range m.postedAt {
		s.PostedAt[id] = at
	}
	var toks []string
	for tok := range m.claims {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	for _, tok := range toks {
		s.Claims = append(s.Claims, m.claims[tok])
	}
	toks = toks[:0]
	for tok := range m.lapsed {
		toks = append(toks, tok)
	}
	sort.Strings(toks)
	for _, tok := range toks {
		s.Lapsed = append(s.Lapsed, m.lapsed[tok])
	}
	for id, as := range m.collected {
		cp := append([]crowd.Assignment(nil), as...)
		sort.Slice(cp, func(i, j int) bool { return cp[i].Slot < cp[j].Slot })
		s.Collected[id] = cp
	}
	return s
}
