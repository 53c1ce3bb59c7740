package crowd

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"testing"
	"time"

	"github.com/crowder/crowder/internal/record"
)

// TestRestoreQueueFromSnapshot: a queue rebuilt from a snapshot serves
// the same open work, honors restored leases (live ones stay claimable
// targets, answered ones count), and keeps per-HIT worker exclusion.
func TestRestoreQueueFromSnapshot(t *testing.T) {
	base := time.Unix(9000, 0)
	hits := PairHITsFromGen([][]record.Pair{
		{record.MakePair(0, 1)},
		{record.MakePair(2, 3)},
	}, 2)
	snap := &QueueSnapshot{
		HITs:     hits,
		Open:     map[int]int{hits[0].ID: 1, hits[1].ID: 2},
		Order:    []int{hits[0].ID, hits[1].ID},
		Answered: map[int]int{hits[0].ID: 1},
		Touched:  map[int][]string{hits[0].ID: {"alice"}},
		PostedAt: map[int]time.Time{hits[0].ID: base.Add(-time.Minute), hits[1].ID: base.Add(-time.Minute)},
		Workers:  []string{"alice"},
		Claims: []ClaimSnapshot{{
			Token: "live-token", HIT: hits[1].ID, Worker: "bob",
			ClaimedAt: base.Add(-10 * time.Second), Deadline: base.Add(50 * time.Second),
		}},
		Lapsed: []ClaimSnapshot{{
			Token: "lapsed-token", HIT: hits[0].ID, Worker: "carol",
			ClaimedAt: base.Add(-2 * time.Minute), Deadline: base.Add(-time.Minute),
		}},
		NextHITID: hits[1].ID + 1,
	}

	q := RestoreQueue(QueueOptions{
		Lease: time.Minute,
		Now:   func() time.Time { return base },
	}, snap)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream := q.Collect(ctx)

	open := q.Open()
	if len(open) != 2 || open[0].HIT.ID != hits[0].ID || open[0].Open != 1 || open[1].Open != 2 {
		t.Fatalf("Open() after restore = %+v", open)
	}
	gh, ga := q.Depth()
	if gh != 2 || ga != 3 {
		t.Fatalf("Depth() = (%d,%d); want (2,3)", gh, ga)
	}
	if !q.ClaimLive("live-token") {
		t.Error("restored live lease not claimable")
	}
	if q.ClaimLive("lapsed-token") {
		t.Error("restored lapsed lease reported live")
	}

	// alice already touched hits[0], so her claim must route to hits[1].
	c, ok := q.Claim("alice")
	if !ok || c.HIT.ID != hits[1].ID {
		t.Fatalf("alice's claim = %+v, %v; want HIT %d", c, ok, hits[1].ID)
	}
	// alice answers under her restored worker ID; answering bob's
	// restored lease completes hits[1]'s other slot under the next one.
	if err := q.Answer(c.Token, []Verdict{{A: 2, B: 3, Match: true}}); err != nil {
		t.Fatalf("answering alice's claim: %v", err)
	}
	if a := <-stream; a.Worker != 0 {
		t.Errorf("alice's assignment has worker %d; want 0 (restored intern table)", a.Worker)
	}
	if err := q.Answer("live-token", []Verdict{{A: 2, B: 3, Match: true}}); err != nil {
		t.Fatalf("answering restored lease: %v", err)
	}
	if a := <-stream; a.Worker != 1 || a.Slot != 1 {
		t.Errorf("bob's assignment = worker %d, slot %d; want worker 1, slot 1", a.Worker, a.Slot)
	}

	// A nil snapshot restores an empty queue.
	empty := RestoreQueue(QueueOptions{}, nil)
	if h, a := empty.Depth(); h != 0 || a != 0 {
		t.Errorf("RestoreQueue(nil) depth = (%d,%d)", h, a)
	}
}

// TestResumeStateAdoption: recovered HITs are adopted by content key
// regardless of the regenerated ID; unmatched ones drain as leftovers.
func TestResumeStateAdoption(t *testing.T) {
	var rs *ResumeState
	if !rs.Empty() {
		t.Fatal("nil ResumeState should be empty")
	}
	if _, ok := rs.take(HIT{}); ok {
		t.Fatal("take on nil ResumeState succeeded")
	}
	if rs.Leftovers() != nil {
		t.Fatal("Leftovers on nil ResumeState")
	}

	old := PairHITsFromGen([][]record.Pair{
		{record.MakePair(0, 1), record.MakePair(1, 2)},
		{record.MakePair(3, 4)},
	}, 1)
	rs = &ResumeState{}
	rs.Add(old[0], []Assignment{{HIT: old[0].ID, Slot: 0}})
	rs.Add(old[1], nil)
	if rs.Empty() {
		t.Fatal("populated ResumeState reported empty")
	}

	// Regenerated HIT: same content, different ID — must adopt old[0].
	regen := PairHITsFromGen([][]record.Pair{{record.MakePair(0, 1), record.MakePair(1, 2)}}, 1)[0]
	if regen.ID == old[0].ID {
		t.Fatal("test needs distinct IDs")
	}
	if ResumeKey(regen) != ResumeKey(old[0]) {
		t.Fatalf("content keys differ: %q vs %q", ResumeKey(regen), ResumeKey(old[0]))
	}
	rh, ok := rs.take(regen)
	if !ok || rh.HIT.ID != old[0].ID || len(rh.Slots) != 1 {
		t.Fatalf("take = %+v, %v; want old HIT %d with 1 slot", rh, ok, old[0].ID)
	}
	if _, ok := rs.take(regen); ok {
		t.Fatal("second take of the same content succeeded")
	}

	// The unadopted HIT drains as a leftover; afterwards the state is dry.
	left := rs.Leftovers()
	if !reflect.DeepEqual(left, []int{old[1].ID}) {
		t.Fatalf("Leftovers = %v; want [%d]", left, old[1].ID)
	}
	if !rs.Empty() || rs.Leftovers() != nil {
		t.Fatal("ResumeState not dry after Leftovers")
	}

	// Keys separate pair content from record content.
	cluster := HIT{Kind: ClusterKind, Records: []record.ID{0, 1, 2}}
	if ResumeKey(cluster) == ResumeKey(regen) {
		t.Fatal("cluster and pair HITs share a resume key")
	}
}

// TestRestoreQueueRaisesHITIDFloor: restoring a snapshot raises the
// HIT ID floor to its NextHITID, so newly minted HIT IDs never collide
// with adopted recovered IDs below it; a lower NextHITID never lowers it.
func TestRestoreQueueRaisesHITIDFloor(t *testing.T) {
	before := PairHITsFromGen([][]record.Pair{{record.MakePair(0, 1)}}, 1)[0].ID
	floor := before + 1000
	RestoreQueue(QueueOptions{}, &QueueSnapshot{NextHITID: floor})
	RestoreQueue(QueueOptions{}, &QueueSnapshot{NextHITID: floor - 500}) // lowering is a no-op
	after := PairHITsFromGen([][]record.Pair{{record.MakePair(0, 1)}}, 1)[0].ID
	if after < floor {
		t.Fatalf("HIT ID %d minted below the floor %d", after, floor)
	}
	ids := []int{before, floor, after}
	if !sort.IntsAreSorted(ids) {
		t.Fatalf("ids out of order: %v", ids)
	}
}

// failingJournal refuses answers while fail is set; the other callbacks
// are no-ops.
type failingJournal struct{ fail bool }

func (*failingJournal) Posted([]HIT, time.Time)                           {}
func (*failingJournal) Claimed(string, int, string, time.Time, time.Time) {}
func (*failingJournal) Expired([]ExpiredClaim)                            {}
func (*failingJournal) Retracted([]int)                                   {}
func (j *failingJournal) Answered(string, int, string, Assignment, bool) error {
	if j.fail {
		return errors.New("disk gone")
	}
	return nil
}

// TestAnswerJournalFailureCommitsNothing: an answer whose journal write
// fails is refused with ErrNotDurable and changes nothing — the claim
// (or the lapsed lease's top-up credit) stays live, no worker ID is
// interned, no slot is used and nothing reaches the Collect stream — so
// the same answer succeeds unchanged once the journal recovers.
func TestAnswerJournalFailureCommitsNothing(t *testing.T) {
	now := time.Unix(1000, 0)
	j := &failingJournal{}
	q := NewQueue(QueueOptions{Lease: time.Minute, Now: func() time.Time { return now }, Journal: j})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream := q.Collect(ctx)
	next := func() (Assignment, bool) {
		select {
		case a := <-stream:
			return a, true
		case <-time.After(50 * time.Millisecond):
			return Assignment{}, false
		}
	}
	answer := []Verdict{{A: 0, B: 1, Match: true}, {A: 2, B: 3, Match: false}}
	hits := PairHITsFromGen([][]record.Pair{{mk(0, 1)}, {mk(2, 3)}}, 1)
	if err := q.Post(ctx, hits); err != nil {
		t.Fatal(err)
	}

	// A live claim.
	c, ok := q.Claim("alice")
	if !ok {
		t.Fatal("claim failed")
	}
	j.fail = true
	if err := q.Answer(c.Token, answer); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("Answer with a failing journal = %v; want ErrNotDurable", err)
	}
	if !q.ClaimLive(c.Token) {
		t.Fatal("refused answer consumed the claim")
	}
	if a, got := next(); got {
		t.Fatalf("refused answer delivered %+v", a)
	}
	j.fail = false
	if err := q.Answer(c.Token, answer); err != nil {
		t.Fatalf("retry after the journal recovered: %v", err)
	}
	if a, got := next(); !got || a.Slot != 0 || a.Worker != 0 {
		t.Fatalf("retried answer delivered %+v (%v); want slot 0, worker 0", a, got)
	}

	// A lapsed lease credited against its posted top-up.
	c, ok = q.Claim("bob")
	if !ok {
		t.Fatal("claim failed")
	}
	now = now.Add(2 * time.Minute)
	q.Sweep()
	if a, got := next(); !got || !a.Expired {
		t.Fatalf("sweep delivered %+v (%v); want an expiry", a, got)
	}
	if err := q.Post(ctx, []HIT{c.HIT}); err != nil {
		t.Fatal(err)
	}
	j.fail = true
	if err := q.Answer(c.Token, answer); !errors.Is(err, ErrNotDurable) {
		t.Fatalf("late Answer with a failing journal = %v; want ErrNotDurable", err)
	}
	if _, open := q.Depth(); open != 1 {
		t.Fatalf("refused late answer left %d open assignments; want the top-up's 1", open)
	}
	if a, got := next(); got {
		t.Fatalf("refused late answer delivered %+v", a)
	}
	j.fail = false
	if err := q.Answer(c.Token, answer); err != nil {
		t.Fatalf("late retry after the journal recovered: %v", err)
	}
	if a, got := next(); !got || a.Slot != 0 || a.Worker != 1 {
		t.Fatalf("late retry delivered %+v (%v); want slot 0, worker 1", a, got)
	}
	if _, open := q.Depth(); open != 0 {
		t.Fatalf("credited late answer left %d open assignments", open)
	}
}
