package crowder

import (
	"cmp"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/record"
)

// sessionRoundAllocs warms a hybrid + transitivity + MAP session with
// pair HITs over base shuffled Restaurant records (session-delta's
// shape), then appends batch records per round and returns the bytes
// each ResolveDelta allocated.
func sessionRoundAllocs(t *testing.T, base, rounds, batch int) []uint64 {
	t.Helper()
	n := base + rounds*batch
	d := dataset.RestaurantN(1, n, n/10)
	perm := rand.New(rand.NewSource(1)).Perm(n)
	where := make([]int, n)
	for pos, old := range perm {
		where[old] = pos
	}
	var oracle []Pair
	for _, p := range d.Matches.Slice() {
		oracle = append(oracle, Pair{A: where[p.A], B: where[p.B]})
	}
	tab := NewTable(d.Table.Schema...)
	for _, old := range perm[:base] {
		tab.Append(d.Table.Records[old].Values...)
	}
	rv, err := NewResolver(tab, Options{
		Threshold: 0.5, HITType: PairHITs, Seed: 1, Oracle: oracle,
		Transitivity: TransitivityOn, Hybrid: HybridOn, Aggregation: AggregationDawidSkeneMAP,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rv.ResolveDelta(); err != nil {
		t.Fatal(err)
	}
	var perRound []uint64
	var before, after runtime.MemStats
	for r := 0; r < rounds; r++ {
		lo := base + r*batch
		for _, old := range perm[lo : lo+batch] {
			rv.Append(d.Table.Records[old].Values...)
		}
		runtime.ReadMemStats(&before)
		if _, err := rv.ResolveDelta(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perRound = append(perRound, after.TotalAlloc-before.TotalAlloc)
	}
	return perRound
}

// A session round rebuilds its derived state — the answer index EM runs
// on, the deduction graph, the learner's rows — in dense storage the
// session reuses, so what a round allocates is mostly its delta's work
// and its result, not hash maps the size of the session. Over a
// 10 000-record base and nine 100-record rounds the median round
// allocated 6 244 704 B when every round built that state in fresh hash
// maps, and 2 133 952 B with the dense, reused storage (2 156 248 B
// under -race); the bound is half the former.
func TestSessionRoundAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("resolves a 10 000-record base")
	}
	perRound := sessionRoundAllocs(t, 10000, 9, 100)
	slices.Sort(perRound)
	med := perRound[len(perRound)/2]
	t.Logf("a session round allocated %d B (median of %v)", med, perRound)
	if med > 6244704/2 {
		t.Errorf("a session round allocated %d B (median); want at most %d", med, 6244704/2)
	}
}

// WorkerStats tallies small non-negative worker IDs in a table and the
// rest in a map; either way it reports what a plain per-worker map tally
// in answer order reports.
func TestWorkerStatsTableAndMap(t *testing.T) {
	rv, err := NewResolver(NewTable("name"), Options{MachineOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	ids := []int{-7, 0, 5, 4095, 4096, 1 << 20, 17}
	for i := 0; i < 60; i++ {
		p := record.MakePair(record.ID(2*i), record.ID(2*i+1))
		rv.cache.Put(p, 0.5)
		var answers []aggregate.Answer
		for _, j := range rng.Perm(len(ids))[:3] {
			answers = append(answers, aggregate.Answer{Pair: p, Worker: ids[j], Match: rng.Intn(2) == 0})
		}
		rv.cache.AddAnswers(answers)
		rv.cache.Get(p).Posterior = rng.Float64()
	}
	tally := map[int]*WorkerStat{}
	for e := range rv.cache.Entries() {
		decided := e.Posterior >= 0.5
		for _, a := range e.Answers {
			s := tally[a.Worker]
			if s == nil {
				s = &WorkerStat{Worker: a.Worker}
				tally[a.Worker] = s
			}
			s.Answers++
			if decided {
				s.MatchesSeen++
			} else {
				s.NonMatchesSeen++
			}
			if a.Match == decided {
				s.Accuracy++
			}
		}
	}
	var want []WorkerStat
	for _, s := range tally {
		s.Accuracy /= float64(s.Answers)
		s.ClassesSeen = min(s.MatchesSeen, 1) + min(s.NonMatchesSeen, 1)
		want = append(want, *s)
	}
	slices.SortFunc(want, func(a, b WorkerStat) int { return cmp.Compare(a.Worker, b.Worker) })
	if got := rv.WorkerStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("WorkerStats = %+v; want %+v", got, want)
	}
}
