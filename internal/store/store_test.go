package store

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/learn"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/simjoin"
	"github.com/crowder/crowder/internal/transitivity"
	"github.com/crowder/crowder/internal/verdicts"
)

// sampleSession is a representative event stream — appends, prunes, an
// atomic commit with asked and deduced verdicts. checkSampleRecovered
// says what its recovered state must look like.
func sampleSession() []Event {
	return []Event{
		&Meta{Schema: []string{"name", "price"}, Aggregator: "dawid-skene"},
		&Append{Rows: []Row{
			{Src: -1, Values: []string{"iPad 2 16GB", "$490"}},
			{Src: -1, Values: []string{"iPad 2nd gen 16 GB", "$469"}},
			{Src: -1, Values: []string{"iPhone 4 16GB", "$520"}},
		}},
		&Prune{Absorbed: 3, Discovered: []simjoin.ScoredPair{
			{Pair: record.MakePair(0, 1), Likelihood: 0.8},
			{Pair: record.MakePair(0, 2), Likelihood: 0.4},
		}},
		&Commit{Ops: []Op{
			{Put: &PutOp{Pair: record.MakePair(0, 1), Likelihood: 0.8}},
			{Deduce: &DeduceOp{
				D: transitivity.Deduction{
					Pair:  record.MakePair(0, 2),
					Match: false,
					Path:  []record.Pair{record.MakePair(0, 1)},
				},
				Likelihood: 0.4,
			}},
			{Answers: []aggregate.Answer{
				{Pair: record.MakePair(0, 1), Worker: 0, Match: true},
				{Pair: record.MakePair(0, 1), Worker: 1, Match: true},
			}},
			{Posteriors: []PairVal{{Pair: record.MakePair(0, 1), Val: 0.97}}},
			{ClearPending: true},
		}},
		&Prune{Absorbed: 3, Discovered: []simjoin.ScoredPair{
			{Pair: record.MakePair(1, 2), Likelihood: 0.3},
		}},
	}
}

func logSampleSession(t *testing.T, fl *FileLog) {
	t.Helper()
	for _, ev := range sampleSession() {
		if err := fl.Log(ev); err != nil {
			t.Fatalf("Log(%T): %v", ev, err)
		}
	}
}

func checkSampleRecovered(t *testing.T, rec *Recovered) {
	t.Helper()
	if got, want := rec.Meta.Schema, []string{"name", "price"}; !reflect.DeepEqual(got, want) {
		t.Errorf("Schema = %v; want %v", got, want)
	}
	if rec.Meta.Aggregator != "dawid-skene" {
		t.Errorf("Aggregator = %q", rec.Meta.Aggregator)
	}
	if len(rec.Rows) != 3 || rec.Rows[1].Values[0] != "iPad 2nd gen 16 GB" {
		t.Errorf("Rows = %+v", rec.Rows)
	}
	if got, want := rec.Boundaries, []int{3}; !reflect.DeepEqual(got, want) {
		t.Errorf("Boundaries = %v; want %v", got, want)
	}
	// The commit cleared the first prune's pending; the second prune's
	// discovery is carried over.
	if len(rec.Pending) != 1 || rec.Pending[0].Pair != record.MakePair(1, 2) {
		t.Errorf("Pending = %+v", rec.Pending)
	}
	if rec.Cache.Len() != 2 {
		t.Fatalf("Cache.Len = %d; want 2", rec.Cache.Len())
	}
	asked := rec.Cache.Get(record.MakePair(0, 1))
	if asked == nil || len(asked.Answers) != 2 || asked.Posterior != 0.97 {
		t.Errorf("asked entry = %+v", asked)
	}
	ded := rec.Cache.Get(record.MakePair(0, 2))
	if ded == nil || ded.Deduction == nil || ded.Deduction.Match {
		t.Errorf("deduced entry = %+v", ded)
	}
}

func TestFileLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fl, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Empty() {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	logSampleSession(t, fl)
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}

	fl2, rec2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fl2.Close()
	checkSampleRecovered(t, rec2)
	if rec2.WALBytes <= 0 {
		t.Errorf("WALBytes = %d; want > 0", rec2.WALBytes)
	}
}

// TestFileLogCompaction: with an aggressive compaction threshold the log
// collapses into a snapshot after every durable write, and recovery from
// snapshot+tail is identical to recovery from the pure WAL.
func TestFileLogCompaction(t *testing.T) {
	dir := t.TempDir()
	fl, _, err := Open(dir, Options{CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	logSampleSession(t, fl)
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, wals, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 1 || len(wals) != 1 {
		t.Fatalf("generations on disk: snaps %v wals %v; want exactly one each", snaps, wals)
	}
	if snaps[0] == 0 {
		t.Fatal("compaction never ran")
	}

	fl2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer fl2.Close()
	checkSampleRecovered(t, rec)
	if rec.SnapshotBytes <= 0 {
		t.Errorf("SnapshotBytes = %d; want > 0", rec.SnapshotBytes)
	}
}

// TestFileLogQueueRoundTrip drives a real queue through the journal and
// checks the recovered snapshot restores an equivalent queue: same open
// work, same live leases, and in-flight collected answers surfaced for
// the resolver to adopt.
func TestFileLogQueueRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fl, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}

	base := time.Unix(5000, 0)
	q := crowd.NewQueue(crowd.QueueOptions{
		Lease:   time.Minute,
		Now:     func() time.Time { return base },
		Journal: QueueJournal(fl),
	})
	pairs := []record.Pair{record.MakePair(0, 1), record.MakePair(2, 3)}
	hits := crowd.PairHITsFromGen([][]record.Pair{pairs[:1], pairs[1:]}, 2)
	if err := q.Post(context.Background(), hits); err != nil {
		t.Fatal(err)
	}
	// One answered assignment (in-flight: its run hasn't completed), one
	// outstanding claim, one slot still open.
	c1, ok := q.Claim("alice")
	if !ok {
		t.Fatal("claim 1 failed")
	}
	if err := q.Answer(c1.Token, allMatch(c1.HIT)); err != nil {
		t.Fatal(err)
	}
	c2, ok := q.Claim("bob")
	if !ok {
		t.Fatal("claim 2 failed")
	}
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Queue == nil {
		t.Fatal("no queue snapshot recovered")
	}
	q2 := crowd.RestoreQueue(crowd.QueueOptions{
		Lease: time.Minute,
		Now:   func() time.Time { return base },
	}, rec.Queue)

	if got, want := q2.Open(), q.Open(); !reflect.DeepEqual(got, want) {
		t.Errorf("Open() after restore = %+v; want %+v", got, want)
	}
	gh, ga := q.Depth()
	rh, ra := q2.Depth()
	if gh != rh || ga != ra {
		t.Errorf("Depth after restore = (%d,%d); want (%d,%d)", rh, ra, gh, ga)
	}
	if !q2.ClaimLive(c2.Token) {
		t.Error("bob's outstanding lease did not survive recovery")
	}
	if rec.Resume == nil || rec.Resume.Empty() {
		t.Fatal("in-flight answered assignment not surfaced for resume")
	}
	if rec.Queue.NextHITID <= hits[1].ID {
		t.Errorf("NextHITID = %d; want > %d", rec.Queue.NextHITID, hits[1].ID)
	}
	// alice's judged pairs travel to the resolver as partial answers.
	if rec.Cache.PartialLen() == 0 {
		t.Error("in-flight answers missing from recovered cache partials")
	}
}

// TestNoopStore: the default store accepts everything and owns nothing.
func TestNoopStore(t *testing.T) {
	var s Store = Noop{}
	if err := s.Log(&Meta{Schema: []string{"a"}}); err != nil {
		t.Fatalf("Noop.Log: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Noop.Close: %v", err)
	}
}

// TestFileLogQueueLifecycleCompaction drives the full queue event
// vocabulary — posts, claims, answers, a sweep expiry, a retraction —
// through an aggressively compacting log, so the recovered state is
// rebuilt from a snapshot (queue + cache sections included) rather than
// a raw WAL replay.
func TestFileLogQueueLifecycleCompaction(t *testing.T) {
	dir := t.TempDir()
	fl, _, err := Open(dir, Options{CompactBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	q, retracted, now := driveQueueLifecycle(t, fl)
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}

	// The aggressive threshold forces every durable write to compact:
	// recovery must come from a snapshot carrying the queue section.
	snaps, _, _, err := scanDir(dir)
	if err != nil || len(snaps) != 1 || snaps[0] == 0 {
		t.Fatalf("no compacted snapshot on disk (snaps %v, err %v)", snaps, err)
	}
	_, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Queue == nil {
		t.Fatal("no queue snapshot recovered")
	}
	q2 := crowd.RestoreQueue(crowd.QueueOptions{
		Lease: time.Minute,
		Now:   func() time.Time { return now },
	}, rec.Queue)
	gh, ga := q.Depth()
	rh, ra := q2.Depth()
	if gh != rh || ga != ra {
		t.Errorf("Depth after snapshot restore = (%d,%d); want (%d,%d)", rh, ra, gh, ga)
	}
	if got, want := q2.Open(), q.Open(); !reflect.DeepEqual(got, want) {
		t.Errorf("Open() after snapshot restore = %+v; want %+v", got, want)
	}
	// alice's completed assignment survives as resumable in-flight state;
	// the retracted HIT must not resurface.
	if rec.Resume == nil || rec.Resume.Empty() {
		t.Error("answered assignment not surfaced for resume")
	}
	for _, oh := range q2.Open() {
		if oh.HIT.ID == retracted {
			t.Error("retracted HIT resurrected by recovery")
		}
	}
	// Stats reports the files the last compaction left behind.
	walBytes, snapBytes := fl.Stats()
	for name, want := range map[string]int64{walName(snaps[0]): walBytes, snapName(snaps[0]): snapBytes} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() != want {
			t.Errorf("%s on disk: %v (err %v); Stats() says %d bytes", name, fi, err, want)
		}
	}
	if snapBytes == 0 {
		t.Error("Stats() reports an empty snapshot")
	}
}

// driveQueueLifecycle runs the full queue event vocabulary through a
// journaled queue — posts, claims, an answer, a sweep expiry, a
// retraction — and returns the queue, the retracted HIT and the clock.
func driveQueueLifecycle(t *testing.T, s Store) (q *crowd.Queue, retracted int, now time.Time) {
	t.Helper()
	now = time.Unix(7000, 0)
	q = crowd.NewQueue(crowd.QueueOptions{
		Lease:   time.Minute,
		Now:     func() time.Time { return now },
		Journal: QueueJournal(s),
	})
	hits := crowd.PairHITsFromGen([][]record.Pair{
		{record.MakePair(0, 1)},
		{record.MakePair(2, 3)},
		{record.MakePair(4, 5)},
	}, 1)
	if err := q.Post(context.Background(), hits); err != nil {
		t.Fatal(err)
	}
	// One answered, one claim expired by a sweep, one retracted.
	c, ok := q.Claim("alice")
	if !ok {
		t.Fatal("claim failed")
	}
	if err := q.Answer(c.Token, allMatch(c.HIT)); err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Claim("bob"); !ok {
		t.Fatal("bob's claim failed")
	}
	now = now.Add(2 * time.Minute)
	q.Sweep() // bob's lease lapses -> QueueExpired
	q.Retract([]int{hits[2].ID})
	return q, hits[2].ID, now
}

// allMatch answers every pair of h as a match.
func allMatch(h crowd.HIT) []crowd.Verdict {
	var vs []crowd.Verdict
	for _, p := range h.Pairs {
		vs = append(vs, crowd.Verdict{A: p.A, B: p.B, Match: true})
	}
	return vs
}

// TestFileLogSticky: a poisoned log keeps failing and never half-applies.
func TestFileLogSticky(t *testing.T) {
	dir := t.TempDir()
	fl, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Close the backing file out from under the writer to force a sync
	// failure on the next durable event.
	fl.f.Close()
	if err := fl.Log(&Meta{Schema: []string{"a"}}); err == nil {
		t.Fatal("Log after losing the file should fail")
	}
	if err := fl.Log(&Meta{Schema: []string{"a"}}); err == nil {
		t.Fatal("poisoned log must stay failed")
	}
}

// TestQueueAnswerNotAcknowledgedOnPoisonedLog: an answer whose fsync
// fails is refused — the queue acknowledges only what is on disk — and
// leaves the claim live with nothing delivered to the run.
func TestQueueAnswerNotAcknowledgedOnPoisonedLog(t *testing.T) {
	fl, _, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	q := crowd.NewQueue(crowd.QueueOptions{Lease: time.Minute, Journal: QueueJournal(fl)})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stream := q.Collect(ctx)
	if err := q.Post(ctx, crowd.PairHITsFromGen([][]record.Pair{{record.MakePair(0, 1)}}, 1)); err != nil {
		t.Fatal(err)
	}
	c, ok := q.Claim("alice")
	if !ok {
		t.Fatal("claim failed")
	}
	fl.f.Close() // the answer's fsync fails
	if err := q.Answer(c.Token, allMatch(c.HIT)); !errors.Is(err, crowd.ErrNotDurable) {
		t.Fatalf("Answer on a poisoned log = %v; want crowd.ErrNotDurable", err)
	}
	if !q.ClaimLive(c.Token) {
		t.Error("unacknowledged answer consumed the claim")
	}
	select {
	case a := <-stream:
		t.Errorf("unacknowledged answer delivered %+v", a)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestCompactionEquivalence: a log that compacts after every durable
// write recovers, after every event, exactly what a log that never
// compacts recovers from the same events — the snapshot is a replay of
// the generation it replaces. Both logs are closed and reopened after
// each event, so every prefix is recovered cold.
func TestCompactionEquivalence(t *testing.T) {
	rec := &recorder{}
	driveQueueLifecycle(t, rec)
	events := append(sampleSession(), rec.events...)
	// End on a durable event, so the compacting log snapshots the
	// final state too.
	events = append(events, &Meta{Spent: 0.5})

	dirs := map[int64]string{1: t.TempDir(), -1: t.TempDir()}
	logs := map[int64]*FileLog{}
	for cb, dir := range dirs {
		fl, _, err := Open(dir, Options{CompactBytes: cb})
		if err != nil {
			t.Fatal(err)
		}
		logs[cb] = fl
	}
	compacted := false
	for i, ev := range events {
		got := map[int64]*Recovered{}
		for cb, dir := range dirs {
			if err := logs[cb].Log(ev); err != nil {
				t.Fatalf("event %d (%T), CompactBytes %d: %v", i, ev, cb, err)
			}
			if err := logs[cb].Close(); err != nil {
				t.Fatal(err)
			}
			fl, r, err := Open(dir, Options{CompactBytes: cb})
			if err != nil {
				t.Fatalf("reopen after event %d (%T), CompactBytes %d: %v", i, ev, cb, err)
			}
			logs[cb], got[cb] = fl, r
		}
		compacted = compacted || got[1].SnapshotBytes > 0
		a, b := view(got[1]), view(got[-1])
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("after event %d (%T) compacted recovery differs:\n got %+v\nwant %+v", i, ev, a, b)
		}
	}
	for _, fl := range logs {
		fl.Close()
	}
	if !compacted {
		t.Fatal("the compacting log never compacted")
	}
}

// recorder is a Store that keeps the events it is given.
type recorder struct{ events []Event }

func (r *recorder) Log(ev Event) error { r.events = append(r.events, ev); return nil }
func (r *recorder) Close() error       { return nil }

// recoveredView is a Recovered with the cache as its canonical dump and
// without the byte and event counts, which differ between a snapshot
// and the WAL it replaces.
type recoveredView struct {
	Recovered
	Entries  []verdicts.Entry
	Partials []aggregate.Answer
}

func view(r *Recovered) recoveredView {
	v := recoveredView{Recovered: *r}
	v.Entries, v.Partials = r.Cache.Dump()
	v.Cache, v.Events, v.WALBytes, v.SnapshotBytes = nil, 0, 0, 0
	return v
}

func TestScanDirIgnoresJunk(t *testing.T) {
	dir := t.TempDir()
	for _, n := range []string{"snapshot-00000002.snap", "wal-00000002.log", "notes.txt", "snapshot-x.snap"} {
		if err := writeFile(t, filepath.Join(dir, n), nil); err != nil {
			t.Fatal(err)
		}
	}
	snaps, wals, _, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(snaps, []int{2}) || !reflect.DeepEqual(wals, []int{2}) {
		t.Errorf("snaps %v wals %v", snaps, wals)
	}
}

// Machine verdicts and the hybrid spend counter survive both recovery
// paths: WAL replay and snapshot+tail (compaction forces the snapshot).
func TestMachineOpAndSpentRoundTrip(t *testing.T) {
	for name, opts := range map[string]Options{
		"wal":      {},
		"snapshot": {CompactBytes: 1},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fl, _, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			events := []Event{
				&Meta{Schema: []string{"name"}},
				&Commit{Ops: []Op{
					{Machine: &MachineOp{Pair: record.MakePair(0, 1), Likelihood: 0.8, Posterior: 0.96}},
					{Machine: &MachineOp{Pair: record.MakePair(1, 2), Likelihood: 0.4, Posterior: 0.03}},
				}},
				&Meta{Spent: 1.25},
				&Meta{Spent: 2.5}, // the running total: the last write wins
			}
			for _, ev := range events {
				if err := fl.Log(ev); err != nil {
					t.Fatalf("Log(%T): %v", ev, err)
				}
			}
			if err := fl.Close(); err != nil {
				t.Fatal(err)
			}

			fl2, rec, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			if rec.Meta.Spent != 2.5 {
				t.Errorf("Spent = %v; want 2.5", rec.Meta.Spent)
			}
			if rec.Cache.MachineLen() != 2 {
				t.Fatalf("MachineLen = %d; want 2", rec.Cache.MachineLen())
			}
			e := rec.Cache.Get(record.MakePair(0, 1))
			if e == nil || e.Posterior != 0.96 || e.Likelihood != 0.8 {
				t.Errorf("machine entry = %+v", e)
			}
			// A Spent-free Meta (e.g. a later config write) must not zero
			// the recovered total.
			if err := fl2.Log(&Meta{Aggregator: "dawid-skene"}); err != nil {
				t.Fatal(err)
			}
			if err := fl2.Close(); err != nil {
				t.Fatal(err)
			}
			fl3, rec, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer fl3.Close()
			if rec.Meta.Spent != 2.5 || rec.Meta.Aggregator != "dawid-skene" {
				t.Errorf("after a Spent-free Meta: Spent = %v, Aggregator = %q; want 2.5, dawid-skene", rec.Meta.Spent, rec.Meta.Aggregator)
			}
		})
	}
}

// The router's model rides Meta frames: replay keeps the last one
// logged — a Meta without a model (a spend-only or config write) does
// not clear it — and a compacting log's snapshot keeps it too.
func TestModelSurvivesCompaction(t *testing.T) {
	first := &learn.State{W: []float64{1, 2}, B: -1, T: 100, Full: 2, N: 2, FP: 7}
	last := &learn.State{W: []float64{0.75, 2.5}, B: -1.25, T: 102, Full: 2, N: 2, FP: 9}
	for name, opts := range map[string]Options{"wal": {}, "snapshot": {CompactBytes: 1}} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fl, _, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range []Event{
				&Meta{Schema: []string{"name"}},
				&Meta{Spent: 0.5, Model: first},
				&Meta{Spent: 1, Model: last},
				&Meta{Spent: 1.5},
			} {
				if err := fl.Log(ev); err != nil {
					t.Fatal(err)
				}
			}
			if err := fl.Close(); err != nil {
				t.Fatal(err)
			}
			fl2, rec, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer fl2.Close()
			if !reflect.DeepEqual(rec.Meta.Model, last) || rec.Meta.Spent != 1.5 {
				t.Errorf("recovered model %+v, spend %v; want %+v, 1.5", rec.Meta.Model, rec.Meta.Spent, last)
			}
			if compacted := rec.SnapshotBytes > 0; compacted != (opts.CompactBytes > 0) {
				t.Errorf("recovered from a snapshot: %v", compacted)
			}
		})
	}
}
