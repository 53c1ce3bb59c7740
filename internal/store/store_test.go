package store

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/simjoin"
	"github.com/crowder/crowder/internal/transitivity"
)

// logSampleSession writes a representative event stream — appends,
// prunes, an atomic commit with asked and deduced verdicts — and returns
// what the recovered state must look like.
func logSampleSession(t *testing.T, fl *FileLog) {
	t.Helper()
	events := []Event{
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
	for _, ev := range events {
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
	var vs []crowd.Verdict
	for _, p := range c1.HIT.Pairs {
		vs = append(vs, crowd.Verdict{A: p.A, B: p.B, Match: true})
	}
	if err := q.Answer(c1.Token, vs); err != nil {
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
	if rec.NextHITID <= hits[1].ID {
		t.Errorf("NextHITID = %d; want > %d", rec.NextHITID, hits[1].ID)
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
	now := time.Unix(7000, 0)
	q := crowd.NewQueue(crowd.QueueOptions{
		Lease:   time.Minute,
		Now:     func() time.Time { return now },
		Journal: QueueJournal(fl),
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
	var vs []crowd.Verdict
	for _, p := range c.HIT.Pairs {
		vs = append(vs, crowd.Verdict{A: p.A, B: p.B, Match: true})
	}
	if err := q.Answer(c.Token, vs); err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Claim("bob"); !ok {
		t.Fatal("bob's claim failed")
	}
	now = now.Add(2 * time.Minute)
	q.Sweep() // bob's lease lapses -> QueueExpired
	q.Retract([]int{hits[2].ID})
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
		if oh.HIT.ID == hits[2].ID {
			t.Error("retracted HIT resurrected by recovery")
		}
	}
	if fl2, _ := fl.Stats(); fl2 < 0 {
		t.Errorf("Stats() wal bytes = %d", fl2)
	}
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
			defer fl2.Close()
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
		})
	}
}
