package crowder

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/learn"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/store"
	"github.com/crowder/crowder/internal/transitivity"
	"github.com/crowder/crowder/internal/verdicts"
)

// hookStore is a FileStore that calls after with every event it logged.
type hookStore struct {
	*FileStore
	after func(store.Event)
}

func (h *hookStore) Log(ev store.Event) error {
	if err := h.FileStore.Log(ev); err != nil {
		return err
	}
	if h.after != nil {
		h.after(ev)
	}
	return nil
}

// hasAnswers reports whether ev is a verdict commit carrying crowd
// answers: an execute round's commit.
func hasAnswers(ev store.Event) bool {
	c, ok := ev.(*store.Windows)
	if !ok {
		return false
	}
	for _, w := range c.W {
		if w.Asked != nil && len(w.Asked.Answers) > 0 {
			return true
		}
	}
	return false
}

// Logs written before aggregation stopped being journaled carry every
// pair's posterior after each delta. Such a log still loads: replay
// applies the posteriors, the restore's own aggregation lands on the
// same values, and the session continues bit-identically.
func TestRestoreResolverAppliesLegacyPosteriorOps(t *testing.T) {
	rows, schema, oracle, _ := productDupDataset()
	n := len(rows)
	batches := [][][]string{rows[:n/2], rows[n/2 : 3*n/4], rows[3*n/4:]}
	opts := Options{
		Threshold: 0.5, HITType: PairHITs, Oracle: oracle, Seed: 7,
		Transitivity: TransitivityOn, Aggregation: AggregationDawidSkeneMAP,
	}
	control, err := NewResolver(NewTable(schema...), opts)
	if err != nil {
		t.Fatal(err)
	}
	var last *Result
	for _, b := range batches {
		control.AppendBatch(b...)
		if last, err = control.ResolveDelta(); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	fl := openTestStore(t, dir)
	dopts := opts
	dopts.Store = fl
	durable, err := NewResolver(NewTable(schema...), dopts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:2] {
		durable.AppendBatch(b...)
		if _, err := durable.ResolveDelta(); err != nil {
			t.Fatal(err)
		}
		var pvs []store.PairVal
		for _, p := range durable.cache.Pairs() {
			pvs = append(pvs, store.PairVal{Pair: p, Val: durable.cache.Get(p).Posterior})
		}
		if err := fl.Log(&store.Commit{Ops: []store.Op{{Posteriors: pvs}}}); err != nil {
			t.Fatal(err)
		}
	}
	if durable.cache.DeducedLen() == 0 {
		t.Fatal("no deduced verdicts before the crash; the re-derivation is untested")
	}

	fl2, rec, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fl2.Close()
	for _, p := range durable.cache.Pairs() {
		if got, want := rec.Cache.Get(p).Posterior, durable.cache.Get(p).Posterior; got != want {
			t.Fatalf("replayed legacy posterior of %v = %v; logged %v", p, got, want)
		}
	}
	ropts := opts
	ropts.Store = fl2
	restored, err := RestoreResolver(rec, ropts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameCache(t, "restored vs crashed", durable.cache, restored.cache)
	restored.AppendBatch(batches[2]...)
	got, err := restored.ResolveDelta()
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatches(t, "after legacy restore", last.Matches, got.Matches)
	assertSameCache(t, "restored vs control", control.cache, restored.cache)
}

// A crash after a delta's execute rounds committed their answers, but
// before the delta aggregated them, restores the fresh aggregate of the
// answers on disk, deduced confidences re-derived from it — exactly the
// session that never crashed — not the previous delta's posteriors.
func TestRestoreResolverCrashBetweenCommits(t *testing.T) {
	rows, schema, oracle, _ := productDupDataset()
	batches := [][][]string{rows[:len(rows)/2], rows[len(rows)/2:]}
	opts := Options{
		Threshold: 0.5, HITType: PairHITs, Oracle: oracle, Seed: 7,
		Transitivity: TransitivityOn,
	}
	control, err := NewResolver(NewTable(schema...), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		control.AppendBatch(b...)
		if _, err := control.ResolveDelta(); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	hs := &hookStore{FileStore: openTestStore(t, dir)}
	dopts := opts
	dopts.Store = hs
	durable, err := NewResolver(NewTable(schema...), dopts)
	if err != nil {
		t.Fatal(err)
	}
	durable.AppendBatch(batches[0]...)
	if _, err := durable.ResolveDelta(); err != nil {
		t.Fatal(err)
	}
	// The second delta's rounds commit as they finish; a copy taken after
	// the last of them is what a crash before aggregation leaves on disk.
	var crashDir string
	hs.after = func(ev store.Event) {
		if hasAnswers(ev) {
			crashDir = t.TempDir()
			copyDir(t, dir, crashDir)
		}
	}
	durable.AppendBatch(batches[1]...)
	if _, err := durable.ResolveDelta(); err != nil {
		t.Fatal(err)
	}
	if crashDir == "" {
		t.Fatal("the second delta committed no answers")
	}

	fl, rec, err := OpenStore(crashDir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	ropts := opts
	ropts.Store = fl
	restored, err := RestoreResolver(rec, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if restored.cache.DeducedLen() == 0 {
		t.Fatal("no deduced verdicts; the re-derivation is untested")
	}
	post := restored.agg.Aggregate(restored.cache.AllAnswers())
	for p, v := range post {
		if got := restored.cache.Get(p).Posterior; got != v {
			t.Fatalf("restored posterior of %v = %v; a fresh aggregate says %v", p, got, v)
		}
	}
	assertSameCache(t, "crash between commits vs control", control.cache, restored.cache)
}

// A hybrid, transitive, MAP-aggregated session journals facts only:
// answers, asked, deduced and machine verdicts — never a posterior.
func TestJournalHoldsNoPosteriors(t *testing.T) {
	rows, schema, oracle, _ := productDupDataset()
	dir := t.TempDir()
	fl, _, err := OpenStore(dir, StoreOptions{CompactBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	hybridSession(t, schema, rows, 4, Options{
		Threshold: 0.5, HITType: PairHITs, Oracle: oracle, Seed: 3,
		Hybrid: HybridOn, Transitivity: TransitivityOn,
		Aggregation: AggregationDawidSkeneMAP, Store: fl,
	})
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "wal-00000000.log"))
	if err != nil {
		t.Fatal(err)
	}
	var answers, machine, deduced int
	_, torn, err := store.ReadEvents("wal", data, func(ev store.Event) error {
		if _, ok := ev.(*store.Commit); ok {
			t.Error("the session wrote a legacy commit, the only frame that carries aggregated posteriors")
		}
		c, ok := ev.(*store.Windows)
		if !ok {
			return nil
		}
		for _, w := range c.W {
			if w.Asked != nil {
				answers += len(w.Asked.Answers)
			}
			machine += len(w.Machine)
			deduced += len(w.Deduced)
		}
		return nil
	})
	if err != nil || torn {
		t.Fatalf("reading the WAL: torn=%v err=%v", torn, err)
	}
	if answers == 0 || machine == 0 || deduced == 0 {
		t.Fatalf("journal holds %d answers, %d machine and %d deduced verdicts; want all three kinds", answers, machine, deduced)
	}
}

// randomCache builds a verdict cache holding every kind of entry: asked
// pairs whose answers arrive in arbitrary worker order with duplicates,
// deduced and machine entries, machine entries upgraded to asked by
// answers, and partial fragments that must never count. Posteriors are
// drawn with the 0.5 decision boundary well represented.
func randomCache(rng *rand.Rand) *verdicts.Cache {
	c := verdicts.NewCache()
	pair := func() record.Pair {
		a, b := rng.Intn(30), rng.Intn(30)
		if a == b {
			b = (a + 1) % 30
		}
		return record.MakePair(record.ID(a), record.ID(b))
	}
	answers := func(p record.Pair) []aggregate.Answer {
		var as []aggregate.Answer
		for n := 1 + rng.Intn(4); n > 0; n-- {
			as = append(as, aggregate.Answer{Pair: p, Worker: rng.Intn(8), Match: rng.Intn(2) == 0})
		}
		if rng.Intn(3) == 0 {
			as = append(as, as[0]) // the same answer twice
		}
		return as
	}
	var machine []record.Pair
	for i := 0; i < 60; i++ {
		p := pair()
		switch rng.Intn(5) {
		case 0:
			putMachine(c, p, rng.Float64(), rng.Float64())
			machine = append(machine, p)
		case 1:
			putDeduced(c, rng.Float64(), transitivity.Deduction{Pair: p, Match: rng.Intn(2) == 0})
		case 2:
			addPartial(c, answers(p))
		default:
			c.Put(p, rng.Float64())
			c.AddAnswers(answers(p))
		}
	}
	for _, p := range machine[:len(machine)/2] {
		c.AddAnswers(answers(p))
	}
	post := make(aggregate.Posterior)
	for _, p := range c.Pairs() {
		if e := c.Get(p); e.Provenance != verdicts.Machine {
			post[p] = []float64{0, 0.25, 0.5, 0.75, 1, rng.Float64()}[rng.Intn(6)]
		}
	}
	c.SetPosteriors(post)
	return c
}

// sortedConcatenation is AllAnswers' earlier definition: every entry's
// answers, concatenated in any order, then sorted canonically.
func sortedConcatenation(c *verdicts.Cache) []aggregate.Answer {
	var out []aggregate.Answer
	pairs := c.Pairs()
	for i := len(pairs) - 1; i >= 0; i-- {
		out = append(out, c.Get(pairs[i]).Answers...)
	}
	aggregate.SortCanonical(out)
	return out
}

// referenceWorkerStats is the worker report's earlier definition: every
// answer of sortedConcatenation judged against a posterior map of all
// cached pairs, counted per worker, sorted by worker.
func referenceWorkerStats(c *verdicts.Cache) []WorkerStat {
	post := make(map[record.Pair]float64)
	for _, p := range c.Pairs() {
		post[p] = c.Get(p).Posterior
	}
	agree := make(map[int]int)
	stats := make(map[int]WorkerStat)
	for _, a := range sortedConcatenation(c) {
		p, ok := post[a.Pair]
		if !ok {
			continue
		}
		s := stats[a.Worker]
		s.Worker = a.Worker
		s.Answers++
		decided := p >= 0.5
		if decided {
			s.MatchesSeen++
		} else {
			s.NonMatchesSeen++
		}
		if a.Match == decided {
			agree[a.Worker]++
		}
		stats[a.Worker] = s
	}
	var out []WorkerStat
	for w := 0; w < 8; w++ {
		s, ok := stats[w]
		if !ok {
			continue
		}
		s.Accuracy = float64(agree[w]) / float64(s.Answers)
		if s.MatchesSeen > 0 {
			s.ClassesSeen++
		}
		if s.NonMatchesSeen > 0 {
			s.ClassesSeen++
		}
		out = append(out, s)
	}
	return out
}

// AllAnswers walks the maintained pair order and sorts each pair's
// answers; the one-pass worker report reads each entry's posterior.
// Both must equal their earlier, globally sorting definitions on any
// cache.
func TestAnswerReadsMatchSortedDefinitions(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		c := randomCache(rand.New(rand.NewSource(seed)))
		if got, want := c.AllAnswers(), sortedConcatenation(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: AllAnswers\n got %v\nwant %v", seed, got, want)
		}
		rv := &Resolver{cache: c}
		if got, want := rv.workerStatsLocked(), referenceWorkerStats(c); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: worker stats\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// Coverage disambiguates accuracy: a worker who only ever answered
// decided non-matches has ClassesSeen 1, so their coin-flip accuracy of
// 0.5 reads as unanchored rather than as a spammer. Answers of pairs not
// judged in full (partial fragments) count for nobody.
func TestWorkerStatsSparseCoverage(t *testing.T) {
	mk := func(a, b record.ID) record.Pair { return record.MakePair(a, b) }
	c := verdicts.NewCache()
	c.AddAnswers([]aggregate.Answer{
		// Worker 1: full coverage, perfect.
		{Pair: mk(0, 1), Worker: 1, Match: true},
		{Pair: mk(2, 3), Worker: 1, Match: false},
		// Worker 2: only decided non-matches, judged with a coin flip.
		{Pair: mk(2, 3), Worker: 2, Match: false},
		{Pair: mk(4, 5), Worker: 2, Match: true},
	})
	// Worker 3 answered only a pair still awaiting its full answer set.
	addPartial(c, []aggregate.Answer{{Pair: mk(8, 9), Worker: 3, Match: true}})
	c.SetPosteriors(aggregate.Posterior{mk(0, 1): 0.9, mk(2, 3): 0.1, mk(4, 5): 0.2})

	got := (&Resolver{cache: c}).workerStatsLocked()
	want := []WorkerStat{
		{Worker: 1, Accuracy: 1, Answers: 2, MatchesSeen: 1, NonMatchesSeen: 1, ClassesSeen: 2},
		{Worker: 2, Accuracy: 0.5, Answers: 2, NonMatchesSeen: 2, ClassesSeen: 1},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("worker stats\n got %+v\nwant %+v", got, want)
	}
}

// A deduction whose proof runs through a pair deduced after it (a
// demoted machine verdict, then deduced from independent evidence)
// derives the same confidence whatever that pair's stored posterior
// was: a restored session, which holds none of the earlier deltas'
// derived values, agrees with the session that never crashed.
func TestDeriveDeducedIgnoresStoredPosteriors(t *testing.T) {
	mk := func(a, b record.ID) record.Pair { return record.MakePair(a, b) }
	build := func(stale float64) *verdicts.Cache {
		c := verdicts.NewCache()
		c.AddAnswers([]aggregate.Answer{
			{Pair: mk(0, 1), Worker: 1, Match: true},
			{Pair: mk(1, 3), Worker: 1, Match: true},
			{Pair: mk(2, 3), Worker: 1, Match: true},
		})
		putMachine(c, mk(1, 2), 0.6, 0.95)
		// (0,2) was deduced over the machine edge (1,2) ...
		putDeduced(c, 0.5, transitivity.Deduction{Pair: mk(0, 2), Match: true, Path: []record.Pair{mk(0, 1), mk(1, 2)}})
		// ... which was later demoted and deduced over (1,3), (2,3).
		putDeduced(c, 0.6, transitivity.Deduction{Pair: mk(1, 2), Match: true, Path: []record.Pair{mk(1, 3), mk(2, 3)}})
		c.SetPosteriors(aggregate.Posterior{mk(0, 1): 0.9, mk(1, 3): 0.8, mk(2, 3): 0.7})
		c.Get(mk(1, 2)).Posterior = stale
		deriveDeduced(c)
		return c
	}
	for _, stale := range []float64{0, 1, 0.3} {
		c := build(stale)
		if got := c.Get(mk(1, 2)).Posterior; got != 0.7 {
			t.Errorf("stale %v: (1,2) derived %v; want its proof's weakest link 0.7", stale, got)
		}
		if got := c.Get(mk(0, 2)).Posterior; got != 0.7 {
			t.Errorf("stale %v: (0,2) derived %v; want 0.7, read through the re-derived (1,2)", stale, got)
		}
	}
}

// WorkerStats after a cancelled delta: the answers of rounds committed in
// full count — against posteriors not yet aggregated, so the first
// delta's fresh pairs all read as decided non-matches — while the
// cancelled round's partial answers count for nobody. A restore
// aggregates once, so the same answers then count against their fresh
// aggregate.
func TestWorkerStatsAfterCancelledDelta(t *testing.T) {
	rows, schema, oracle := resolverDataset(11, 160, 30)
	dir := t.TempDir()
	hs := &hookStore{FileStore: openTestStore(t, dir)}
	opts := Options{
		Threshold: 0.4, HITType: PairHITs, Oracle: oracle, Seed: 7,
		Transitivity: TransitivityOn, Store: hs,
	}
	rv, err := NewResolver(NewTable(schema...), opts)
	if err != nil {
		t.Fatal(err)
	}
	rv.AppendBatch(rows...)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	hs.after = func(ev store.Event) {
		if hasAnswers(ev) {
			cancel() // the first round is committed; the next one is cancelled
		}
	}
	if _, err := rv.ResolveDeltaContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled delta returned %v; want context.Canceled", err)
	}
	hs.after = nil
	stats := rv.WorkerStats()
	if len(stats) == 0 {
		t.Fatal("no worker stats after a committed round")
	}
	for _, s := range stats {
		if s.MatchesSeen != 0 {
			t.Fatalf("worker %d saw %d decided matches before any aggregation", s.Worker, s.MatchesSeen)
		}
	}

	fl, rec, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	ropts := opts
	ropts.Store = fl
	restored, err := RestoreResolver(rec, ropts)
	if err != nil {
		t.Fatal(err)
	}
	matches, answers := 0, 0
	for i, s := range restored.WorkerStats() {
		if s.Worker != stats[i].Worker || s.Answers != stats[i].Answers {
			t.Fatalf("restored worker %+v; the session had %+v", s, stats[i])
		}
		matches += s.MatchesSeen
		answers += s.Answers
	}
	if matches == 0 || matches == answers {
		t.Errorf("restored stats see %d of %d answers on decided matches; want the fresh aggregate's mix", matches, answers)
	}
}

// hybridCrashOpts is the product+dup hybrid session the model-journal
// tests crash: synthetic negatives fire and the learner takes warm steps.
func hybridCrashOpts(oracle []Pair, s Store) Options {
	return Options{
		Threshold: 0.5, HITType: PairHITs, ClusterSize: 10,
		Oracle: oracle, Seed: 1, SpammerRate: NoSpammers,
		Transitivity: TransitivityOn, Hybrid: HybridOn, Store: s,
	}
}

// A hybrid crash after a delta's last answers commit, before the
// aggregation commit journaled the retrained model in its Meta frame:
// recovery finds the previous delta's model and a label set it was not
// trained on, and runs the warm step the commit would have run. The
// restored learner — weights, bias, training margins and so the band —
// and the next delta's matches and HITs equal the never-crashed twin's.
func TestRestoreResolverHybridCrashBeforeModel(t *testing.T) {
	rows, schema, oracle, _ := productDupDataset()
	const batches = 6
	size := (len(rows) + batches - 1) / batches
	dir := t.TempDir()
	hs := &hookStore{FileStore: openTestStore(t, dir)}
	twin, err := NewResolver(NewTable(schema...), hybridCrashOpts(oracle, hs))
	if err != nil {
		t.Fatal(err)
	}
	var crashDir string
	hs.after = func(ev store.Event) {
		if hasAnswers(ev) {
			crashDir = t.TempDir()
			copyDir(t, dir, crashDir)
		}
	}
	next := -1
	for i := 0; i < batches-1 && next < 0; i++ {
		crashDir = ""
		prev := twin.learner
		twin.AppendBatch(rows[i*size : (i+1)*size]...)
		if _, err := twin.ResolveDelta(); err != nil {
			t.Fatal(err)
		}
		if s := twin.learner.State(); crashDir != "" && prev.Ready() && twin.learner != prev && s.Full != s.N {
			next = i + 1 // this delta paid for answers and took a warm step
		}
	}
	if next < 0 {
		t.Fatal("no delta took a warm step after crowd answers; the crash is untested")
	}
	hs.after = nil

	fl, rec, err := OpenStore(crashDir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if m := rec.Meta.Model; m == nil || m.N == twin.learner.State().N && m.FP == twin.learner.State().FP {
		t.Fatalf("the crash copy holds model %+v; want the previous delta's", m)
	}
	restored, err := RestoreResolver(rec, hybridCrashOpts(oracle, fl))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(restored.learner, twin.learner) {
		t.Fatalf("restored learner %+v; never-crashed twin's %+v", restored.learner.State(), twin.learner.State())
	}
	tail := rows[next*size : min((next+1)*size, len(rows))]
	twin.AppendBatch(tail...)
	want, err := twin.ResolveDelta()
	if err != nil {
		t.Fatal(err)
	}
	restored.AppendBatch(tail...)
	got, err := restored.ResolveDelta()
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatches(t, "after the crash before the model", want.Matches, got.Matches)
	if got.HITs != want.HITs || got.MachinePairs != want.MachinePairs {
		t.Errorf("restored delta posted %d HITs, routed %d; twin %d, %d", got.HITs, got.MachinePairs, want.HITs, want.MachinePairs)
	}
	// The crashed delta's spend rode the Meta frame the crash lost, so
	// the spend counter is the one stat the restore cannot recover.
	a, b := twin.HybridStats(), restored.HybridStats()
	a.SpentDollars, b.SpentDollars = 0, 0
	if a != b {
		t.Errorf("stats diverged: %+v vs %+v", a, b)
	}
}

// modelStripper is a FileStore that journals Meta frames without their
// model, as builds before the model was journaled wrote them.
type modelStripper struct{ *FileStore }

func (m modelStripper) Log(ev store.Event) error {
	if meta, ok := ev.(*store.Meta); ok && meta.Model != nil {
		stripped := *meta
		stripped.Model = nil
		if stripped.Spent == 0 {
			return nil
		}
		ev = &stripped
	}
	return m.FileStore.Log(ev)
}

// A WAL without the model field restores: recovery runs one full train
// over the recovered labels, and the session continues from it.
func TestRestoreResolverWithoutJournaledModel(t *testing.T) {
	rows, schema, oracle, _ := productDupDataset()
	half := len(rows) / 2
	dir := t.TempDir()
	old, err := NewResolver(NewTable(schema...), hybridCrashOpts(oracle, modelStripper{openTestStore(t, dir)}))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][][]string{rows[:half/2], rows[half/2 : half]} {
		old.AppendBatch(b...)
		if _, err := old.ResolveDelta(); err != nil {
			t.Fatal(err)
		}
	}
	fl, rec, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if rec.Meta.Model != nil || rec.Meta.Spent == 0 {
		t.Fatalf("the stripped WAL recovers model %+v and spend %v", rec.Meta.Model, rec.Meta.Spent)
	}
	restored, err := RestoreResolver(rec, hybridCrashOpts(oracle, fl))
	if err != nil {
		t.Fatal(err)
	}
	labels := restored.trainingLabelsLocked()
	cold, err := learn.Train(restored.table.inner, labels, restored.learnOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !restored.learner.Ready() || !reflect.DeepEqual(restored.learner, cold) {
		t.Fatal("a model-less restore is not one full train over the recovered labels")
	}
	restored.AppendBatch(rows[half:]...)
	res, err := restored.ResolveDelta()
	if err != nil {
		t.Fatal(err)
	}
	if res.NewCandidates == 0 || res.MachinePairs == 0 {
		t.Errorf("the continued session found %d candidates and routed %d by machine", res.NewCandidates, res.MachinePairs)
	}
}

// testdata/legacy-session is a durable session written in the per-pair
// Commit format, compaction off: the base and first two deltas of a
// hybrid, transitive, MAP-aggregated session over the first 420
// product+dup rows in batches of 84. It restores, and its third delta
// equals a store-less session's third delta: match list and cache dump.
func TestLegacyCommitLogFixture(t *testing.T) {
	rows, schema, oracle, _ := productDupDataset()
	const size = 84
	opts := Options{
		Threshold: 0.5, HITType: PairHITs, Oracle: oracle, Seed: 5,
		Hybrid: HybridOn, Transitivity: TransitivityOn,
		Aggregation: AggregationDawidSkeneMAP,
	}
	control, err := NewResolver(NewTable(schema...), opts)
	if err != nil {
		t.Fatal(err)
	}
	var want *Result
	for i := 0; i < 4; i++ {
		control.AppendBatch(rows[i*size : (i+1)*size]...)
		if want, err = control.ResolveDelta(); err != nil {
			t.Fatal(err)
		}
	}

	dir := t.TempDir()
	copyDir(t, filepath.Join("testdata", "legacy-session"), dir)
	data, err := os.ReadFile(filepath.Join(dir, "wal-00000000.log"))
	if err != nil {
		t.Fatal(err)
	}
	commits := 0
	if _, _, err := store.ReadEvents("wal", data, func(ev store.Event) error {
		if _, ok := ev.(*store.Commit); ok {
			commits++
		}
		return nil
	}); err != nil || commits == 0 {
		t.Fatalf("the fixture holds %d legacy commits (err %v)", commits, err)
	}
	fl, rec, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ropts := opts
	ropts.Store = fl
	restored, err := RestoreResolver(rec, ropts)
	if err != nil {
		t.Fatal(err)
	}
	restored.AppendBatch(rows[3*size : 4*size]...)
	got, err := restored.ResolveDelta()
	if err != nil {
		t.Fatal(err)
	}
	if got.HITs == 0 || got.DeducedPairs == 0 {
		t.Fatalf("the restored delta posted %d HITs and deduced %d pairs; want crowd work and deductions", got.HITs, got.DeducedPairs)
	}
	assertSameMatches(t, "legacy fixture, delta 3", want.Matches, got.Matches)
	we, wp := control.cache.Dump()
	ge, gp := restored.cache.Dump()
	if !reflect.DeepEqual(we, ge) || !reflect.DeepEqual(wp, gp) {
		t.Fatal("legacy fixture, delta 3: the cache dump differs from the store-less session's")
	}

	// The log now holds legacy commits, then windows. It restores the
	// same cache as it is and once compacted.
	if err := fl.Close(); err != nil {
		t.Fatal(err)
	}
	for _, compacted := range []bool{false, true} {
		if compacted {
			fl, _, err := OpenStore(dir, StoreOptions{CompactBytes: 1})
			if err != nil {
				t.Fatal(err)
			}
			if err := fl.Log(&store.Windows{}); err != nil { // any durable event compacts
				t.Fatal(err)
			}
			if err := fl.Close(); err != nil {
				t.Fatal(err)
			}
		}
		fl, rec, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if compacted != (rec.SnapshotBytes > 0) {
			t.Fatalf("compacted %v, yet the store recovered %d snapshot bytes", compacted, rec.SnapshotBytes)
		}
		ropts.Store = fl
		again, err := RestoreResolver(rec, ropts)
		if err != nil {
			t.Fatal(err)
		}
		ae, ap := again.cache.Dump()
		if !reflect.DeepEqual(ae, ge) || !reflect.DeepEqual(ap, gp) {
			t.Fatalf("legacy fixture and windows (compacted %v): the restored cache differs from the session's", compacted)
		}
		fl.Close()
	}
}
