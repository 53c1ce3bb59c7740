package verdicts

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/simjoin"
	"github.com/crowder/crowder/internal/transitivity"
)

func mk(a, b int) record.Pair { return record.MakePair(record.ID(a), record.ID(b)) }

func TestCachePutGetSplit(t *testing.T) {
	c := NewCache()
	p1, p2, p3 := mk(0, 1), mk(1, 2), mk(2, 3)
	e := c.Put(p1, 0.7)
	if e.Likelihood != 0.7 || c.Len() != 1 || !c.Has(p1) {
		t.Fatalf("Put/Has/Len broken: %+v", e)
	}
	// Put is idempotent: the first likelihood wins.
	if again := c.Put(p1, 0.2); again != e || again.Likelihood != 0.7 {
		t.Fatal("re-Put should return the existing entry unchanged")
	}
	c.Put(p2, 0.5)
	cached, fresh := c.Split([]record.Pair{p1, p3, p2})
	if len(cached) != 2 || len(fresh) != 1 || fresh[0] != p3 {
		t.Fatalf("Split = %v / %v", cached, fresh)
	}
	if c.Get(p3) != nil {
		t.Error("Get of unseen pair should be nil")
	}
}

// AllAnswers must depend only on the answer set, not on insertion order —
// the property that makes k-batch re-aggregation bit-identical to a
// from-scratch run.
func TestAllAnswersCanonicalOrder(t *testing.T) {
	answers := []aggregate.Answer{
		{Pair: mk(3, 4), Worker: 2, Match: true},
		{Pair: mk(0, 1), Worker: 9, Match: false},
		{Pair: mk(0, 1), Worker: 4, Match: true},
		{Pair: mk(1, 2), Worker: 1, Match: true},
	}
	a := NewCache()
	a.AddAnswers(answers)
	b := NewCache()
	for i := len(answers) - 1; i >= 0; i-- {
		b.AddAnswers(answers[i : i+1])
	}
	wa, wb := a.AllAnswers(), b.AllAnswers()
	if len(wa) != len(answers) || len(wb) != len(answers) {
		t.Fatalf("lost answers: %d / %d", len(wa), len(wb))
	}
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("order depends on insertion: %v vs %v", wa, wb)
		}
	}
	for i := 1; i < len(wa); i++ {
		prev, cur := wa[i-1], wa[i]
		if prev.Pair.A > cur.Pair.A || (prev.Pair == cur.Pair && prev.Worker > cur.Worker) {
			t.Fatalf("not canonically sorted: %v before %v", prev, cur)
		}
	}
}

func TestSetPosteriorsAndPairs(t *testing.T) {
	c := NewCache()
	c.Put(mk(1, 2), 0.6)
	c.Put(mk(0, 1), 0.4)
	c.SetPosteriors(aggregate.Posterior{mk(1, 2): 0.93, mk(5, 6): 0.2})
	if got := c.Get(mk(1, 2)).Posterior; got != 0.93 {
		t.Errorf("posterior = %v; want 0.93", got)
	}
	if c.Has(mk(5, 6)) {
		t.Error("SetPosteriors must not create entries")
	}
	ps := c.Pairs()
	if len(ps) != 2 || ps[0] != mk(0, 1) || ps[1] != mk(1, 2) {
		t.Errorf("Pairs = %v", ps)
	}
}

// Partial answer sets — the residue of a cancelled or failed resolution —
// must persist until the pair is judged in full, then be superseded.
func TestPartialAnswersLifecycle(t *testing.T) {
	c := NewCache()
	p1, p2 := mk(0, 1), mk(1, 2)
	c.addPartialAnswers([]aggregate.Answer{
		{Pair: p1, Worker: 1, Match: true},
		{Pair: p1, Worker: 2, Match: false},
		{Pair: p2, Worker: 1, Match: true},
	})
	if c.PartialLen() != 2 {
		t.Fatalf("PartialLen = %d; want 2", c.PartialLen())
	}
	if got := c.partial[p1]; len(got) != 2 {
		t.Fatalf("PartialAnswers(p1) = %v", got)
	}
	// Partial answers never count as judged.
	if c.Has(p1) || c.Len() != 0 {
		t.Fatal("partial answers must not create verdict entries")
	}
	// Judging p1 in full supersedes its fragment; p2's remains.
	c.AddAnswers([]aggregate.Answer{
		{Pair: p1, Worker: 1, Match: true},
		{Pair: p1, Worker: 2, Match: false},
		{Pair: p1, Worker: 3, Match: true},
	})
	if c.partial[p1] != nil {
		t.Error("full judgment should clear the pair's partial answers")
	}
	if c.PartialLen() != 1 || c.partial[p2] == nil {
		t.Error("other pairs' partial answers must survive")
	}
	// Fragments arriving for an already-judged pair are moot.
	c.addPartialAnswers([]aggregate.Answer{{Pair: p1, Worker: 9, Match: true}})
	if len(c.partial[p1]) != 0 {
		t.Error("partial answers for a judged pair should be dropped")
	}
	// A retried-and-cancelled run's fragment replaces the previous one
	// instead of accumulating duplicates.
	c.addPartialAnswers([]aggregate.Answer{{Pair: p2, Worker: 5, Match: true}})
	if got := c.partial[p2]; len(got) != 1 || got[0].Worker != 5 {
		t.Errorf("latest fragment should replace the old one; got %v", got)
	}
	// AllAnswers sees only full judgments.
	if got := len(c.AllAnswers()); got != 3 {
		t.Errorf("AllAnswers = %d answers; want 3", got)
	}
}

func TestProvenanceLifecycle(t *testing.T) {
	c := NewCache()
	asked := record.MakePair(0, 1)
	c.Put(asked, 0.8)
	if e := c.Get(asked); e.Provenance != Asked || e.Deduction != nil {
		t.Fatalf("Put produced %v/%v; want asked with no proof", e.Provenance, e.Deduction)
	}

	ded := transitivity.Deduction{
		Pair:  record.MakePair(0, 2),
		Match: true,
		Path:  []record.Pair{record.MakePair(0, 1), record.MakePair(1, 2)},
	}
	e := c.putDeduced(0.7, ded)
	if e.Provenance != Deduced || e.Deduction == nil || !e.Deduction.Match {
		t.Fatalf("putDeduced produced %+v", e)
	}
	if e.Posterior != 1 {
		t.Errorf("deduced match initial posterior = %v; want 1", e.Posterior)
	}
	if got := c.DeducedLen(); got != 1 {
		t.Errorf("DeducedLen = %d; want 1", got)
	}
	if !c.Has(ded.Pair) {
		t.Error("deduced pair not judged: the resolver would re-ask it")
	}

	// Asked entries never downgrade to deduced.
	c.putDeduced(0, transitivity.Deduction{Pair: asked, Match: false})
	if e := c.Get(asked); e.Provenance != Asked {
		t.Error("putDeduced downgraded an asked entry")
	}
	// A deduced entry later asked directly upgrades and sheds its proof.
	up := c.Put(ded.Pair, 0.9)
	if up.Provenance != Asked || up.Deduction != nil {
		t.Errorf("asked upgrade left %v/%v", up.Provenance, up.Deduction)
	}
	if up.Likelihood != 0.9 {
		t.Errorf("upgrade kept likelihood %v; want 0.9", up.Likelihood)
	}
}

func TestPutDeducedSupersedesPartialFragments(t *testing.T) {
	c := NewCache()
	p := record.MakePair(3, 4)
	c.addPartialAnswers([]aggregate.Answer{{Pair: p, Worker: 1, Match: true}})
	if c.PartialLen() != 1 {
		t.Fatal("partial fragment not recorded")
	}
	c.putDeduced(0.5, transitivity.Deduction{Pair: p, Match: false, Negative: true, Witness: record.MakePair(2, 3)})
	if c.PartialLen() != 0 {
		t.Error("deduced verdict left the partial fragment behind")
	}
	if e := c.Get(p); e.Posterior != 0 {
		t.Errorf("deduced non-match initial posterior = %v; want 0", e.Posterior)
	}
}

// BindAggregator pins the cache to one aggregation method: the first
// bind sets the identity, re-binding the same name is a no-op, and a
// different name is refused — the session-level guarantee that cached
// and fresh answers are never re-aggregated under mixed modes.
func TestBindAggregator(t *testing.T) {
	c := NewCache()
	if got := c.aggregator; got != "" {
		t.Fatalf("fresh cache is bound to %q", got)
	}
	if err := c.BindAggregator(""); err == nil {
		t.Fatal("empty aggregator identity must be rejected")
	}
	if err := c.BindAggregator("dawid-skene-map"); err != nil {
		t.Fatalf("first bind failed: %v", err)
	}
	if got := c.aggregator; got != "dawid-skene-map" {
		t.Fatalf("aggregator = %q after bind", got)
	}
	if err := c.BindAggregator("dawid-skene-map"); err != nil {
		t.Fatalf("re-binding the same aggregator failed: %v", err)
	}
	err := c.BindAggregator("majority-vote")
	if err == nil {
		t.Fatal("binding a different aggregator must fail")
	}
	for _, name := range []string{"dawid-skene-map", "majority-vote"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("mix-mode error %q does not name %q", err, name)
		}
	}
}

// Machine provenance: the hybrid router's verdicts enter the cache
// first-come, never overwrite crowd or deduced judgments, and upgrade
// to asked the moment the crowd weighs in directly.
func TestMachineProvenanceLifecycle(t *testing.T) {
	c := NewCache()
	p := mk(0, 1)
	e := c.putMachine(p, 0.7, 0.95)
	if e.Provenance != Machine || e.Posterior != 0.95 || e.Likelihood != 0.7 {
		t.Fatalf("putMachine produced %+v", e)
	}
	if Machine.String() != "machine" {
		t.Errorf("Machine.String() = %q", Machine.String())
	}
	if c.MachineLen() != 1 || c.Len() != 1 {
		t.Fatalf("MachineLen=%d Len=%d; want 1, 1", c.MachineLen(), c.Len())
	}
	// First verdict wins: a re-route of the same pair is a no-op.
	if again := c.putMachine(p, 0.2, 0.1); again != e || e.Posterior != 0.95 {
		t.Error("re-putMachine must keep the original verdict")
	}
	// An existing asked or deduced entry is never downgraded to machine.
	asked := mk(1, 2)
	c.Put(asked, 0.6)
	if got := c.putMachine(asked, 0.1, 0.2); got.Provenance != Asked {
		t.Errorf("putMachine over an asked entry changed provenance to %v", got.Provenance)
	}

	// The crowd's direct judgment supersedes the model's guess: Put and
	// AddAnswers both upgrade machine → asked.
	if up := c.Put(p, 0.8); up.Provenance != Asked || up.Likelihood != 0.8 {
		t.Errorf("Put over machine entry = %+v; want asked upgrade", up)
	}
	if c.MachineLen() != 0 {
		t.Errorf("MachineLen = %d after upgrade; want 0", c.MachineLen())
	}
	p2 := mk(2, 3)
	c.putMachine(p2, 0.5, 0.1)
	c.AddAnswers([]aggregate.Answer{{Pair: p2, Worker: 1, Match: true}})
	e2 := c.Get(p2)
	if e2.Provenance != Asked || len(e2.Answers) != 1 {
		t.Errorf("AddAnswers over machine entry = %+v; want asked with the answer", e2)
	}
}

// GroundEntries is the hybrid deduction graph's observation stream:
// asked and machine entries in canonical order, never deduced ones —
// and exactly the asked entries when no machine verdicts exist.
func TestGroundEntriesOrderAndFilter(t *testing.T) {
	c := NewCache()
	c.putMachine(mk(4, 5), 0.5, 0.9)
	c.Put(mk(0, 1), 0.8)
	c.putDeduced(0.6, transitivity.Deduction{Pair: mk(2, 3), Match: true, Path: []record.Pair{mk(0, 1)}})
	c.putMachine(mk(1, 2), 0.4, 0.05)
	checkGround(t, c, []record.Pair{mk(0, 1), mk(1, 2), mk(4, 5)})

	plain := NewCache()
	plain.Put(mk(5, 6), 0.1)
	plain.Put(mk(0, 9), 0.2)
	plain.Put(mk(0, 3), 0.3)
	plain.putDeduced(0, transitivity.Deduction{Pair: mk(1, 2), Match: true})
	checkGround(t, plain, []record.Pair{mk(0, 3), mk(0, 9), mk(5, 6)})
	for _, e := range plain.GroundEntries() {
		if e.Provenance != Asked {
			t.Errorf("machine-free GroundEntries holds %v entry %v", e.Provenance, e.Pair)
		}
	}
}

func checkGround(t *testing.T, c *Cache, want []record.Pair) {
	t.Helper()
	ground := c.GroundEntries()
	if len(ground) != len(want) {
		t.Fatalf("GroundEntries = %d entries; want %d", len(ground), len(want))
	}
	for i, e := range ground {
		if e.Pair != want[i] {
			t.Errorf("GroundEntries[%d] = %v; want %v", i, e.Pair, want[i])
		}
		if e.Provenance == Deduced {
			t.Errorf("deduced entry %v leaked into GroundEntries", e.Pair)
		}
	}
}

// The canonical order is maintained on insert, in whatever order pairs
// arrive and across the folds of the recent run into the sorted one:
// Pairs, GroundEntries and Dump all read it. A machine entry replaced by
// a deduction must not appear twice.
func TestPairsOrderMaintainedOnInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := NewCache()
	want := record.NewPairSet()
	for i := 0; i < 3000; i++ {
		p := mk(rng.Intn(200), rng.Intn(200))
		if p.A == p.B {
			continue
		}
		switch i % 4 {
		case 0:
			c.Put(p, 0.5)
		case 1:
			c.putMachine(p, 0.5, 0.9)
		case 2:
			c.putDeduced(0.5, transitivity.Deduction{Pair: p, Match: true})
		default:
			c.AddAnswers([]aggregate.Answer{{Pair: p, Worker: i, Match: true}})
		}
		want.Add(p.A, p.B)
		if i%97 == 0 || i == 2999 {
			if got := c.Pairs(); !slices.Equal(got, want.Slice()) {
				t.Fatalf("after %d inserts Pairs has %d pairs, not the %d-pair set in canonical order", i+1, len(got), len(want))
			}
		}
	}
	entries, _ := c.Dump()
	restored := RestoreCache(entries, nil)
	if !slices.Equal(restored.Pairs(), want.Slice()) || len(entries) != c.Len() {
		t.Fatal("Dump/RestoreCache does not preserve the canonical order")
	}
}

// putMachine supersedes partial fragments (the pair is judged now) and
// machine entries survive a Dump/Restore round trip with provenance.
func TestMachineDumpRestoreAndPartials(t *testing.T) {
	c := NewCache()
	p := mk(0, 1)
	c.addPartialAnswers([]aggregate.Answer{{Pair: p, Worker: 3, Match: true}})
	c.putMachine(p, 0.7, 0.88)
	if len(c.partial[p]) != 0 {
		t.Error("machine judgment should clear the pair's partial answers")
	}

	restored := RestoreCache(c.Dump())
	e := restored.Get(p)
	if e == nil || e.Provenance != Machine || e.Posterior != 0.88 || e.Likelihood != 0.7 {
		t.Fatalf("restored machine entry = %+v", e)
	}
	if restored.MachineLen() != 1 {
		t.Errorf("restored MachineLen = %d; want 1", restored.MachineLen())
	}
}

// One AddAnswers call over interleaved answers for several pairs must
// leave the cache exactly as feeding the answers one call at a time:
// per-pair answer order, provenance, partial fragments and the pair
// order. The pairs cover an asked entry holding an earlier answer, a
// pair with only a partial fragment, a machine entry and incidental
// pairs with no entry at all.
func TestAddAnswersBatchMatchesPerAnswer(t *testing.T) {
	asked, fragment, machine, untouched := mk(0, 1), mk(2, 3), mk(4, 5), mk(6, 7)
	incidental := []record.Pair{mk(1, 9), mk(0, 8)}
	build := func() *Cache {
		c := NewCache()
		c.Put(asked, 0.7)
		c.AddAnswers([]aggregate.Answer{{Pair: asked, Worker: 7, Match: true}})
		c.addPartialAnswers([]aggregate.Answer{{Pair: fragment, Worker: 1, Match: false}})
		c.addPartialAnswers([]aggregate.Answer{{Pair: untouched, Worker: 2, Match: true}})
		c.putMachine(machine, 0.6, 0.9)
		return c
	}
	rng := rand.New(rand.NewSource(5))
	pairs := append([]record.Pair{asked, fragment, machine}, incidental...)
	var answers []aggregate.Answer
	for k := 0; k < 40; k++ {
		answers = append(answers, aggregate.Answer{Pair: pairs[rng.Intn(len(pairs))], Worker: rng.Intn(6), Match: rng.Intn(2) == 0})
	}

	batch, single := build(), build()
	batch.AddAnswers(answers)
	for i := range answers {
		single.AddAnswers(answers[i : i+1])
	}
	if got, want := batch.Pairs(), single.Pairs(); !slices.Equal(got, want) {
		t.Fatalf("Pairs = %v; per-answer %v", got, want)
	}
	for _, p := range append(pairs, untouched) {
		b, s := batch.Get(p), single.Get(p)
		if (b == nil) != (s == nil) {
			t.Fatalf("%v: entry presence differs", p)
		}
		if b != nil && (!slices.Equal(b.Answers, s.Answers) || b.Provenance != s.Provenance || b.Likelihood != s.Likelihood || b.Posterior != s.Posterior) {
			t.Errorf("%v: batch entry %+v; per-answer %+v", p, b, s)
		}
		if !slices.Equal(batch.partial[p], single.partial[p]) {
			t.Errorf("%v: partials %v; per-answer %v", p, batch.partial[p], single.partial[p])
		}
	}
	if e := batch.Get(machine); e.Provenance != Asked {
		t.Errorf("machine entry answered by the crowd has provenance %v; want asked", e.Provenance)
	}
	if batch.partial[fragment] != nil || batch.partial[untouched] == nil {
		t.Error("a judged pair keeps its fragment, or an unjudged one lost its own")
	}
	if n := len(batch.Get(asked).Answers); n < 2 || batch.Get(asked).Answers[0].Worker != 7 {
		t.Errorf("asked entry's earlier answer is not kept first: %v", batch.Get(asked).Answers)
	}
}

// An Asked window reserving the replication factor gives a pair its
// three answers in one allocation, the reservation; appended one at a
// time they would regrow the slice from capacity 1 to 2 to 4. An entry
// that already holds answers keeps them as they are.
func TestReservedAnswersAllocateOnce(t *testing.T) {
	p := mk(0, 1)
	answers := []aggregate.Answer{{Pair: p, Worker: 1, Match: true}, {Pair: p, Worker: 2}, {Pair: p, Worker: 3, Match: true}}
	c := NewCache()
	e := c.Put(p, 0.5)
	allocs := func(w *AskedWindow) float64 {
		return testing.AllocsPerRun(100, func() {
			e.Answers = nil
			c.Apply(Window{Asked: w})
		})
	}
	pairs, at := []simjoin.ScoredPair{{Pair: p, Likelihood: 0.5}}, []int32{0, 0, 0}
	bare := allocs(&AskedWindow{Pairs: pairs, Reserve: 3})
	if got := allocs(&AskedWindow{Pairs: pairs, Reserve: 3, Answers: answers, At: at}); got != bare {
		t.Errorf("a reserved pair's 3 answers cost %v allocations beyond the window's %v; want none", got-bare, bare)
	}
	c.Apply(Window{Asked: &AskedWindow{Pairs: pairs, Reserve: 8}})
	if !slices.Equal(e.Answers, answers) || cap(e.Answers) != 3 {
		t.Errorf("Reserve on an answered entry changed it: %v (cap %d)", e.Answers, cap(e.Answers))
	}
}

// refAddAnswers is AddAnswers as it was before entries could be named by
// the caller: one map lookup per answer.
func refAddAnswers(c *Cache, answers []aggregate.Answer) {
	for _, a := range answers {
		e, ok := c.entries[a.Pair]
		if !ok {
			e = c.Put(a.Pair, 0)
		}
		if e.Provenance == Machine {
			e.Provenance = Asked
		}
		e.Answers = append(e.Answers, a)
		delete(c.partial, a.Pair)
	}
}

// randomHistory builds a cache over 12 records: asked entries with
// answers, machine and deduced entries, and partial fragments.
func randomHistory(rng *rand.Rand) *Cache {
	c := NewCache()
	for i := 0; i < 30; i++ {
		p := mk(rng.Intn(12), 12+rng.Intn(12))
		switch rng.Intn(4) {
		case 0:
			c.Put(p, rng.Float64())
			c.AddAnswers([]aggregate.Answer{{Pair: p, Worker: rng.Intn(5), Match: rng.Intn(2) == 0}})
		case 1:
			c.putMachine(p, rng.Float64(), rng.Float64())
		case 2:
			c.putDeduced(rng.Float64(), transitivity.Deduction{Pair: p, Match: rng.Intn(2) == 0})
		default:
			c.addPartialAnswers([]aggregate.Answer{{Pair: p, Worker: rng.Intn(5)}})
		}
	}
	return c
}

// sameCache fails unless the caches hold the same entries and
// fragments (Dump), in the same canonical order (Pairs), with as many
// fragment pairs, and the walk yields the entries the map holds.
func sameCache(t *testing.T, label string, got, want *Cache) {
	t.Helper()
	ge, gp := got.Dump()
	we, wp := want.Dump()
	if !reflect.DeepEqual(ge, we) || !reflect.DeepEqual(gp, wp) || !slices.Equal(got.Pairs(), want.Pairs()) {
		t.Fatalf("%s: caches differ\n%+v\n%+v", label, ge, we)
	}
	if got.PartialLen() != want.PartialLen() {
		t.Fatalf("%s: %d fragment pairs; want %d", label, got.PartialLen(), want.PartialLen())
	}
	var walked []record.Pair
	for e := range got.Entries() {
		if got.Get(e.Pair) != e {
			t.Fatalf("%s: the walk yields an entry the map does not hold", label)
		}
		walked = append(walked, e.Pair)
	}
	if !slices.Equal(walked, want.Pairs()) {
		t.Fatalf("%s: Entries walks %v; want %v", label, walked, want.Pairs())
	}
}
