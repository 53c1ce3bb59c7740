package crowder

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/crowder/crowder/internal/simjoin"
	"github.com/crowder/crowder/internal/store"
)

// openTestStore opens a FileStore in a fresh temp dir and returns it
// with its recovered (empty) state.
func openTestStore(t *testing.T, dir string) *FileStore {
	t.Helper()
	fl, rec, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Empty() {
		t.Fatalf("fresh store dir not empty: %+v", rec)
	}
	return fl
}

// TestRestoreResolverBitIdentical: a session logged to disk, reloaded
// with RestoreResolver, must continue bit-identically to one that never
// went down — same matches, same candidates, zero re-issued HITs for
// pairs already judged, and in the end the same verdict cache. The
// session crashes after each of its first three deltas in turn, so the
// replay rebuilds one, two and three frozen per-delta index weightings:
// the hard part of replay.
func TestRestoreResolverBitIdentical(t *testing.T) {
	rows, schema, oracle := resolverDataset(11, 160, 30)
	batches := [][][]string{rows[:70], rows[70:110], rows[110:140], rows[140:]}

	opts := Options{
		Threshold: 0.4,
		HITType:   PairHITs,
		Oracle:    oracle,
		Seed:      7,
	}

	// Control: the session that never crashes.
	control, err := NewResolver(NewTable(schema...), opts)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*Result
	for _, b := range batches {
		control.AppendBatch(b...)
		res, err := control.ResolveDelta()
		if err != nil {
			t.Fatal(err)
		}
		wants = append(wants, res)
	}

	for crash := 1; crash < len(batches); crash++ {
		t.Run(fmt.Sprintf("crash-after=%d", crash), func(t *testing.T) {
			// Durable twin: the first deltas, logged to disk, then
			// "crashed" (dropped without Close — every paid verdict is
			// fsynced).
			dir := t.TempDir()
			dopts := opts
			dopts.Store = openTestStore(t, dir)
			durable, err := NewResolver(NewTable(schema...), dopts)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range batches[:crash] {
				durable.AppendBatch(b...)
				if _, err := durable.ResolveDelta(); err != nil {
					t.Fatal(err)
				}
			}

			// Recover from disk into a fresh resolver.
			fl2, rec, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer fl2.Close()
			ropts := opts
			ropts.Store = fl2
			restored, err := RestoreResolver(rec, ropts)
			if err != nil {
				t.Fatal(err)
			}

			// Every remaining delta must agree with the control's
			// bit-for-bit, and the restored session must pay for
			// exactly what the control paid for — nothing re-issued.
			for i := crash; i < len(batches); i++ {
				restored.AppendBatch(batches[i]...)
				got, err := restored.ResolveDelta()
				if err != nil {
					t.Fatal(err)
				}
				want := wants[i]
				label := fmt.Sprintf("delta %d", i)
				assertSameMatches(t, label, want.Matches, got.Matches)
				if got.HITs != want.HITs {
					t.Errorf("%s: restored session issued %d HITs; control issued %d", label, got.HITs, want.HITs)
				}
				if got.Candidates != want.Candidates || got.TotalPairs != want.TotalPairs {
					t.Errorf("%s: restored accounting (%d cand, %d pairs) vs control (%d, %d)",
						label, got.Candidates, got.TotalPairs, want.Candidates, want.TotalPairs)
				}
				if got.CostDollars != want.CostDollars {
					t.Errorf("%s: restored CostDollars %v vs control %v", label, got.CostDollars, want.CostDollars)
				}
			}
			assertSameCache(t, "restored vs control", control.cache, restored.cache)
		})
	}
}

// TestRestoreResolverAggregatorMismatch: a session must be recovered
// under the aggregation mode that produced its verdicts.
func TestRestoreResolverAggregatorMismatch(t *testing.T) {
	rows, schema, oracle := resolverDataset(3, 40, 8)
	dir := t.TempDir()
	opts := Options{Threshold: 0.4, HITType: PairHITs, Oracle: oracle, Seed: 1, Store: openTestStore(t, dir)}
	rv, err := NewResolver(NewTable(schema...), opts)
	if err != nil {
		t.Fatal(err)
	}
	rv.AppendBatch(rows...)
	if _, err := rv.ResolveDelta(); err != nil {
		t.Fatal(err)
	}

	_, rec, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	bad := Options{Threshold: 0.4, HITType: PairHITs, Oracle: oracle, Seed: 1, Aggregation: AggregationMajorityVote}
	if _, err := RestoreResolver(rec, bad); err == nil {
		t.Fatal("recovering a dawid-skene session as majority-vote should fail")
	}
}

// TestRestoreResolverPreloadedTable: a session handed a pre-loaded
// table journals those rows, source tags included, so a crash after its
// first delta recovers the whole table. Restored ≡ never-crashed on
// Len, every Verdict and the next delta's Result. The cross-source case
// tags the duplicates (the dataset's last 24 rows) as a second source;
// the pre-loaded part holds four of them, so both deltas buy verdicts.
func TestRestoreResolverPreloadedTable(t *testing.T) {
	rows, schema, oracle := resolverDataset(13, 120, 24)
	pre, later := rows[:100], rows[100:]
	source := func(i int) int {
		if i >= len(rows)-24 {
			return 1
		}
		return 0
	}
	for _, tc := range []struct {
		name  string
		cross bool
	}{{"single-source", false}, {"cross-source", true}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Threshold: 0.4, HITType: PairHITs, Oracle: oracle, Seed: 5, CrossSourceOnly: tc.cross}
			preloaded := func() *Table {
				tab := NewTable(schema...)
				for i, row := range pre {
					if tc.cross {
						tab.AppendFrom(source(i), row...)
					} else {
						tab.Append(row...)
					}
				}
				return tab
			}
			appendLater := func(rv *Resolver) {
				for i, row := range later {
					if tc.cross {
						rv.AppendFrom(source(len(pre)+i), row...)
					} else {
						rv.Append(row...)
					}
				}
			}

			control, err := NewResolver(preloaded(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := control.ResolveDelta(); err != nil {
				t.Fatal(err)
			}
			appendLater(control)
			want, err := control.ResolveDelta()
			if err != nil {
				t.Fatal(err)
			}

			dir := t.TempDir()
			dopts := opts
			dopts.Store = openTestStore(t, dir)
			durable, err := NewResolver(preloaded(), dopts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := durable.ResolveDelta(); err != nil {
				t.Fatal(err)
			}
			fl2, rec, err := OpenStore(dir, StoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer fl2.Close()
			ropts := opts
			ropts.Store = fl2
			restored, err := RestoreResolver(rec, ropts)
			if err != nil {
				t.Fatal(err)
			}
			if restored.Len() != len(pre) {
				t.Fatalf("restored session holds %d records; %d were pre-loaded", restored.Len(), len(pre))
			}
			appendLater(restored)
			got, err := restored.ResolveDelta()
			if err != nil {
				t.Fatal(err)
			}
			if restored.Len() != control.Len() {
				t.Fatalf("restored Len %d; control %d", restored.Len(), control.Len())
			}
			for a := 0; a < control.Len(); a++ {
				for b := a + 1; b < control.Len(); b++ {
					p := Pair{A: a, B: b}
					wv, wok := control.Verdict(p)
					gv, gok := restored.Verdict(p)
					if wv != gv || wok != gok {
						t.Fatalf("Verdict(%v): restored (%v, %v); control (%v, %v)", p, gv, gok, wv, wok)
					}
				}
			}
			assertSameMatches(t, "next delta", want.Matches, got.Matches)
			if got.HITs != want.HITs || got.Candidates != want.Candidates || got.TotalPairs != want.TotalPairs || got.CostDollars != want.CostDollars {
				t.Errorf("next delta: restored (%d HITs, %d cand, %d pairs, $%v); control (%d, %d, %d, $%v)",
					got.HITs, got.Candidates, got.TotalPairs, got.CostDollars,
					want.HITs, want.Candidates, want.TotalPairs, want.CostDollars)
			}
			assertSameCache(t, "restored vs control", control.cache, restored.cache)
		})
	}
}

// TestAppendFromRejectsNegativeSource: the session log tags rows
// appended without a source with a negative one, so a negative source
// would come back from recovery as untagged. AppendFrom refuses it, on
// a Table and on a Resolver, before anything reaches the log. (ReadCSV
// reports a negative source cell as an input error instead; see
// TestReadCSVErrors.)
func TestAppendFromRejectsNegativeSource(t *testing.T) {
	mustPanic := func(label string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: a negative source did not panic", label)
			}
		}()
		f()
	}
	mustPanic("Table.AppendFrom", func() { NewTable("name").AppendFrom(-1, "x") })

	dir := t.TempDir()
	rv, err := NewResolver(NewTable("name"), Options{Store: openTestStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic("Resolver.AppendFrom", func() { rv.AppendFrom(-1, "x") })
	rv.AppendFrom(0, "y")
	_, rec, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Rows) != 1 || rec.Rows[0].Src != 0 {
		t.Errorf("log holds rows %+v; want only the source-0 row", rec.Rows)
	}
}

// TestRestoreResolverMixedSourceTags: a session that mixes Append and
// AppendFrom under CrossSourceOnly recovers the same source tags (an
// untagged row counts as source 0 before and after the crash), so the
// restored session's next delta equals the never-crashed one's.
func TestRestoreResolverMixedSourceTags(t *testing.T) {
	opts := Options{Threshold: 0.1, CrossSourceOnly: true, MachineOnly: true}
	first := func(rv *Resolver) {
		rv.AppendFrom(0, "apple ipod touch 8gb")
		rv.AppendFrom(1, "apple ipod touch 8gb black")
		rv.Append("apple ipod touch 8gb 2nd gen")
	}
	second := func(rv *Resolver) {
		rv.Append("apple ipod touch 8gb white")
		rv.AppendFrom(1, "apple ipod touch 8gb silver")
	}

	control, err := NewResolver(NewTable("name"), opts)
	if err != nil {
		t.Fatal(err)
	}
	first(control)
	if _, err := control.ResolveDelta(); err != nil {
		t.Fatal(err)
	}
	second(control)
	want, err := control.ResolveDelta()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	dopts := opts
	dopts.Store = openTestStore(t, dir)
	durable, err := NewResolver(NewTable("name"), dopts)
	if err != nil {
		t.Fatal(err)
	}
	first(durable)
	if _, err := durable.ResolveDelta(); err != nil {
		t.Fatal(err)
	}
	fl2, rec, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fl2.Close()
	ropts := opts
	ropts.Store = fl2
	restored, err := RestoreResolver(rec, ropts)
	if err != nil {
		t.Fatal(err)
	}
	second(restored)
	got, err := restored.ResolveDelta()
	if err != nil {
		t.Fatal(err)
	}
	// Sources {0:3, 1:2}: 6 cross pairs.
	if want.TotalPairs != 6 {
		t.Errorf("control TotalPairs = %d; want 6", want.TotalPairs)
	}
	if got.TotalPairs != want.TotalPairs || got.Candidates != want.Candidates || got.NewCandidates != want.NewCandidates {
		t.Errorf("next delta: restored (%d pairs, %d cand, %d new); control (%d, %d, %d)",
			got.TotalPairs, got.Candidates, got.NewCandidates,
			want.TotalPairs, want.Candidates, want.NewCandidates)
	}
	assertSameMatches(t, "next delta", want.Matches, got.Matches)
}

// TestRestoreResolverIgnoresLegacyBlockedCursor: logs written while the
// resolver also offered token blocking carry a "blocked" cursor on every
// Prune frame. Such a log still opens and restores: the field is
// ignored, the absorb boundary and the pending candidates replay, and the
// restored session finishes exactly as a fresh resolve of the table.
func TestRestoreResolverIgnoresLegacyBlockedCursor(t *testing.T) {
	rows, schema, _ := resolverDataset(5, 60, 10)
	opts := Options{Threshold: 0.3, MachineOnly: true}

	// Session identity and rows logged the ordinary way; the machine pass
	// then crashed after logging its prune, before any verdict commit.
	dir := t.TempDir()
	fl := openTestStore(t, dir)
	dopts := opts
	dopts.Store = fl
	rv, err := NewResolver(NewTable(schema...), dopts)
	if err != nil {
		t.Fatal(err)
	}
	rv.AppendBatch(rows...)
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	cands := simjoin.Join(rv.table.inner, simjoin.Options{Threshold: opts.Threshold})
	if len(cands) == 0 {
		t.Fatal("fixture has no candidates; the pending replay is vacuous")
	}
	disc, err := json.Marshal(cands)
	if err != nil {
		t.Fatal(err)
	}
	const tagPrune = 3 // the store's Prune event tag
	prune := fmt.Sprintf(`{"absorbed":%d,"blocked":3,"discovered":%s}`, len(rows), disc)
	appendWALFrame(t, filepath.Join(dir, "wal-00000000.log"), append([]byte{tagPrune}, prune...))

	fl2, rec, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fl2.Close()
	if len(rec.Boundaries) != 1 || rec.Boundaries[0] != len(rows) || len(rec.Pending) != len(cands) {
		t.Fatalf("recovered boundaries %v and %d pending; want [%d] and %d",
			rec.Boundaries, len(rec.Pending), len(rows), len(cands))
	}
	ropts := opts
	ropts.Store = fl2
	restored, err := RestoreResolver(rec, ropts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.ResolveDelta()
	if err != nil {
		t.Fatal(err)
	}
	fresh := NewTable(schema...)
	for _, row := range rows {
		fresh.Append(row...)
	}
	want, err := Resolve(fresh, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatches(t, "legacy log", want.Matches, got.Matches)
}

// TestRestoreResolverLegacyMachineOnly: logs written before machine-only
// pairs became machine verdicts commit each delta's pairs as Put ops plus
// one Posteriors op carrying their likelihoods, with ClearPending; their
// snapshots hold asked entries without answers. Either as a WAL tail or
// compacted into the snapshot's cache state, such a log restores to the
// matches a fresh machine-only resolve ranks, as machine verdicts.
func TestRestoreResolverLegacyMachineOnly(t *testing.T) {
	rows, schema, _ := resolverDataset(5, 60, 10)
	opts := Options{Threshold: 0.3, MachineOnly: true}
	fresh := NewTable(schema...)
	for _, row := range rows {
		fresh.Append(row...)
	}
	want, err := Resolve(fresh, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, compacted := range []bool{false, true} {
		dir := t.TempDir()
		fl := openTestStore(t, dir)
		dopts := opts
		dopts.Store = fl
		rv, err := NewResolver(NewTable(schema...), dopts)
		if err != nil {
			t.Fatal(err)
		}
		rv.AppendBatch(rows...)
		if err := fl.Close(); err != nil {
			t.Fatal(err)
		}
		cands := simjoin.Join(rv.table.inner, simjoin.Options{Threshold: opts.Threshold})
		if len(cands) == 0 {
			t.Fatal("fixture has no candidates; the legacy commit is vacuous")
		}
		ops := make([]store.Op, 0, len(cands)+2)
		post := make([]store.PairVal, 0, len(cands))
		for _, sp := range cands {
			ops = append(ops, store.Op{Put: &store.PutOp{Pair: sp.Pair, Likelihood: sp.Likelihood}})
			post = append(post, store.PairVal{Pair: sp.Pair, Val: sp.Likelihood})
		}
		ops = append(ops, store.Op{Posteriors: post}, store.Op{ClearPending: true})
		const tagPrune, tagCommit = 3, 4 // the store's Prune and Commit event tags
		for _, ev := range []struct {
			tag byte
			v   any
		}{{tagPrune, &store.Prune{Absorbed: len(rows), Discovered: cands}}, {tagCommit, &store.Commit{Ops: ops}}} {
			payload, err := json.Marshal(ev.v)
			if err != nil {
				t.Fatal(err)
			}
			appendWALFrame(t, filepath.Join(dir, "wal-00000000.log"), append([]byte{ev.tag}, payload...))
		}
		if compacted {
			// Any durable event past the threshold compacts the log.
			fl, _, err := OpenStore(dir, StoreOptions{CompactBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := fl.Log(&store.Commit{}); err != nil {
				t.Fatal(err)
			}
			if err := fl.Close(); err != nil {
				t.Fatal(err)
			}
		}

		fl2, rec, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if compacted != (rec.SnapshotBytes > 0) {
			t.Fatalf("compacted %v, yet the store recovered %d snapshot bytes", compacted, rec.SnapshotBytes)
		}
		ropts := opts
		ropts.Store = fl2
		restored, err := RestoreResolver(rec, ropts)
		if err != nil {
			t.Fatal(err)
		}
		if hs := restored.HybridStats(); hs.MachinePairs != len(cands) || hs.CrowdPairs != 0 {
			t.Errorf("compacted %v: restored %d machine and %d crowd pairs; want %d and 0", compacted, hs.MachinePairs, hs.CrowdPairs, len(cands))
		}
		got, err := restored.ResolveDelta()
		if err != nil {
			t.Fatal(err)
		}
		assertSameMatches(t, fmt.Sprintf("legacy machine-only log (compacted %v)", compacted), want.Matches, got.Matches)
		fl2.Close()
	}
}

// TestDurableSessionLogIsByteReproducible: the same durable session,
// written twice, leaves byte-identical files, although the parallel join
// discovers each delta's candidates in no fixed order.
func TestDurableSessionLogIsByteReproducible(t *testing.T) {
	rows, schema, oracle := resolverDataset(11, 400, 60)
	opts := Options{Threshold: 0.3, Seed: 3, Parallelism: 8, Oracle: oracle}
	write := func() map[string][]byte {
		dir := t.TempDir()
		fl := openTestStore(t, dir)
		o := opts
		o.Store = fl
		rv, err := NewResolver(NewTable(schema...), o)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range [][][]string{rows[:280], rows[280:320], rows[320:360], rows[360:]} {
			rv.AppendBatch(batch...)
			if _, err := rv.ResolveDelta(); err != nil {
				t.Fatal(err)
			}
		}
		if err := fl.Close(); err != nil {
			t.Fatal(err)
		}
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][]byte, len(files))
		for _, f := range files {
			if out[f.Name()], err = os.ReadFile(filepath.Join(dir, f.Name())); err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
	a, b := write(), write()
	if len(a) != len(b) {
		t.Fatalf("the runs left %d and %d files", len(a), len(b))
	}
	for name, data := range a {
		if !bytes.Equal(data, b[name]) {
			t.Errorf("%s differs between two runs of the same session (%d vs %d bytes)", name, len(data), len(b[name]))
		}
	}
}

// appendWALFrame appends one frame to a store log file in its on-disk
// layout: magic 0xC7 | payload length | header CRC | payload CRC |
// payload, little-endian, CRC32-Castagnoli.
func appendWALFrame(t *testing.T, path string, payload []byte) {
	t.Helper()
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	frame := make([]byte, 13, 13+len(payload))
	frame[0] = 0xC7
	binary.LittleEndian.PutUint32(frame[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[5:9], crc32.Checksum(frame[:5], castagnoli))
	binary.LittleEndian.PutUint32(frame[9:13], crc32.Checksum(payload, castagnoli))
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(append(frame, payload...)); err != nil {
		f.Close()
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// copyDir snapshots a session directory mid-run — a crash-consistent
// copy, exactly what a SIGKILL leaves behind (a possibly-torn WAL tail).
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	des, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, de := range des {
		data, err := os.ReadFile(filepath.Join(src, de.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, de.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreResolverAdoptsInFlight kills a resolve mid-crowd (by
// snapshotting the session dir after half the HITs are answered — every
// answer is fsynced before the queue acks it) and restarts from the
// copy: the recovered session must adopt the in-flight HITs, re-issue
// nothing for the already-answered pairs, and finish with matches
// bit-identical to the run that never crashed.
func TestRestoreResolverAdoptsInFlight(t *testing.T) {
	rows, schema, oracle := resolverDataset(9, 36, 9)
	truth := make(map[Pair]bool, len(oracle))
	for _, p := range oracle {
		truth[p] = true
	}
	isMatch := func(a, b int) bool {
		if a > b {
			a, b = b, a
		}
		return truth[Pair{A: a, B: b}]
	}

	dir := t.TempDir()
	fl := openTestStore(t, dir)
	queue := NewQueueBackend(QueueOptions{Lease: time.Minute, Journal: NewQueueJournal(fl)})
	opts := Options{
		Threshold:   0.4,
		HITType:     PairHITs,
		ClusterSize: 2, // split the posting across several HITs so the crash lands mid-flight
		Assignments: 1,
		Backend:     queue,
		Store:       fl,
	}
	rv, err := NewResolver(NewTable(schema...), opts)
	if err != nil {
		t.Fatal(err)
	}
	rv.AppendBatch(rows...)

	resCh := make(chan *Result, 1)
	errCh := make(chan error, 1)
	go func() {
		res, err := rv.ResolveDelta()
		resCh <- res
		errCh <- err
	}()

	// Wait for the full posting, then answer half the open HITs; each
	// Answer fsyncs its QueueAnswered event before returning.
	var open []OpenHIT
	deadline := time.Now().Add(10 * time.Second)
	for {
		open = queue.Open()
		if len(open) > 0 {
			// Pair HITs post in a single atomic batch, so the first
			// non-empty view is the complete posting.
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("HITs never posted")
		}
		time.Sleep(time.Millisecond)
	}
	answered := make(map[Pair]bool)
	half := (len(open) + 1) / 2
	for i := 0; i < half; i++ {
		c, ok := queue.Claim("w")
		if !ok {
			t.Fatalf("claim %d/%d failed", i, half)
		}
		var vs []Verdict
		for _, p := range c.HIT.Pairs {
			vs = append(vs, Verdict{A: p.A, B: p.B, Match: isMatch(int(p.A), int(p.B))})
			answered[Pair{A: int(p.A), B: int(p.B)}] = true
		}
		if err := queue.Answer(c.Token, vs); err != nil {
			t.Fatal(err)
		}
	}

	// SIGKILL: snapshot the dir as the crash would leave it. The original
	// session keeps running and finishes as the never-crashed control.
	crashDir := t.TempDir()
	copyDir(t, dir, crashDir)

	for {
		c, ok := queue.Claim("w")
		if !ok {
			break
		}
		var vs []Verdict
		for _, p := range c.HIT.Pairs {
			vs = append(vs, Verdict{A: p.A, B: p.B, Match: isMatch(int(p.A), int(p.B))})
		}
		if err := queue.Answer(c.Token, vs); err != nil {
			t.Fatal(err)
		}
	}
	want := <-resCh
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}

	// Restart from the crash copy.
	fl2, rec, err := OpenStore(crashDir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fl2.Close()
	if rec.Resume == nil || rec.Resume.Empty() {
		t.Fatal("crashed session has no in-flight HITs to adopt")
	}
	queue2 := RestoreQueue(QueueOptions{Lease: time.Minute, Journal: NewQueueJournal(fl2)}, rec.Queue)
	ropts := opts
	ropts.Backend = queue2
	ropts.Store = fl2
	restored, err := RestoreResolver(rec, ropts)
	if err != nil {
		t.Fatal(err)
	}

	resCh2 := make(chan *Result, 1)
	errCh2 := make(chan error, 1)
	go func() {
		res, err := restored.ResolveDelta()
		resCh2 <- res
		errCh2 <- err
	}()

	// Drain the restored queue: only the unanswered HITs may surface.
	reclaimed := 0
	deadline = time.Now().Add(10 * time.Second)
	for {
		c, ok := queue2.Claim("w")
		if !ok {
			select {
			case res := <-resCh2:
				if err := <-errCh2; err != nil {
					t.Fatal(err)
				}
				if reclaimed == 0 {
					t.Fatal("nothing left to answer after recovery — crash state was not mid-flight")
				}
				assertSameMatches(t, "crash-recovered", want.Matches, res.Matches)
				return
			default:
				if time.Now().After(deadline) {
					t.Fatal("restored resolve never finished")
				}
				time.Sleep(time.Millisecond)
				continue
			}
		}
		for _, p := range c.HIT.Pairs {
			if answered[Pair{A: int(p.A), B: int(p.B)}] {
				t.Fatalf("pair (%d,%d) was answered before the crash and re-issued after recovery", p.A, p.B)
			}
		}
		reclaimed++
		var vs []Verdict
		for _, p := range c.HIT.Pairs {
			vs = append(vs, Verdict{A: p.A, B: p.B, Match: isMatch(int(p.A), int(p.B))})
		}
		if err := queue2.Answer(c.Token, vs); err != nil {
			t.Fatal(err)
		}
	}
}
