package aggregate

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/crowder/crowder/internal/record"
)

func mk(a, b int) record.Pair { return record.MakePair(record.ID(a), record.ID(b)) }

func TestMajorityVote(t *testing.T) {
	answers := []Answer{
		{Pair: mk(0, 1), Worker: 1, Match: true},
		{Pair: mk(0, 1), Worker: 2, Match: true},
		{Pair: mk(0, 1), Worker: 3, Match: false},
		{Pair: mk(2, 3), Worker: 1, Match: false},
		{Pair: mk(2, 3), Worker: 2, Match: false},
		{Pair: mk(2, 3), Worker: 3, Match: false},
	}
	post := MajorityVote(answers)
	if got := post[mk(0, 1)]; got < 0.66 || got > 0.67 {
		t.Errorf("post(0,1) = %v; want 2/3", got)
	}
	if got := post[mk(2, 3)]; got != 0 {
		t.Errorf("post(2,3) = %v; want 0", got)
	}
}

func TestPosteriorRankedAndMatches(t *testing.T) {
	post := Posterior{mk(0, 1): 0.9, mk(2, 3): 0.1, mk(4, 5): 0.6}
	ranked := post.Ranked()
	if ranked[0] != mk(0, 1) || ranked[1] != mk(4, 5) || ranked[2] != mk(2, 3) {
		t.Fatalf("Ranked = %v", ranked)
	}
	m := post.Matches(0.5)
	if m.Len() != 2 || !m.Has(0, 1) || !m.Has(4, 5) {
		t.Fatalf("Matches = %v", m)
	}
}

// The commit path's sorts are unstable (slices.SortFunc) over total
// orders, so on random, tie-heavy inputs they must produce exactly what
// a stable sort under the same order does: the output is a function of
// the input set alone.
func TestSortsMatchStableReference(t *testing.T) {
	for _, tc := range []struct {
		name          string
		n, ids, ranks int
	}{
		{"empty", 0, 4, 2},
		{"one", 1, 4, 2},
		{"tie-heavy", 400, 6, 3},
		{"sparse", 400, 200, 50},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.n + tc.ids)))
			answers := make([]Answer, tc.n)
			post := Posterior{}
			for i := range answers {
				p := mk(rng.Intn(tc.ids), tc.ids+rng.Intn(tc.ids))
				answers[i] = Answer{Pair: p, Worker: rng.Intn(tc.ranks), Match: rng.Intn(2) == 0}
				post[p] = float64(rng.Intn(tc.ranks)) / float64(tc.ranks)
			}

			want := slices.Clone(answers)
			sort.SliceStable(want, func(i, j int) bool {
				a, b := want[i], want[j]
				if a.Pair != b.Pair {
					return a.Pair.A < b.Pair.A || (a.Pair.A == b.Pair.A && a.Pair.B < b.Pair.B)
				}
				if a.Worker != b.Worker {
					return a.Worker < b.Worker
				}
				return !a.Match && b.Match
			})
			SortCanonical(answers)
			if !slices.Equal(answers, want) {
				t.Error("SortCanonical differs from the stable reference")
			}

			wantRanked := make([]record.Pair, 0, len(post))
			for p := range post {
				wantRanked = append(wantRanked, p)
			}
			sort.SliceStable(wantRanked, func(i, j int) bool {
				a, b := wantRanked[i], wantRanked[j]
				if post[a] != post[b] {
					return post[a] > post[b]
				}
				return a.A < b.A || (a.A == b.A && a.B < b.B)
			})
			if !slices.Equal(post.Ranked(), wantRanked) {
				t.Error("Ranked differs from the stable reference")
			}
		})
	}
}

func TestDawidSkenePerfectWorkers(t *testing.T) {
	// With three perfect workers, EM must recover the ground truth.
	truth := map[record.Pair]bool{
		mk(0, 1): true, mk(2, 3): false, mk(4, 5): true,
		mk(6, 7): false, mk(8, 9): false,
	}
	var answers []Answer
	for p, isMatch := range truth {
		for w := 1; w <= 3; w++ {
			answers = append(answers, Answer{Pair: p, Worker: w, Match: isMatch})
		}
	}
	post := DawidSkene(answers, DawidSkeneOptions{})
	for p, isMatch := range truth {
		if isMatch && post[p] < 0.9 {
			t.Errorf("post(%v) = %v; want ~1 for a match", p, post[p])
		}
		if !isMatch && post[p] > 0.1 {
			t.Errorf("post(%v) = %v; want ~0 for a non-match", p, post[p])
		}
	}
}

func TestDawidSkeneEmpty(t *testing.T) {
	if post := DawidSkene(nil, DawidSkeneOptions{}); len(post) != 0 {
		t.Errorf("empty answers should give empty posterior; got %v", post)
	}
}

// buildNoisyAnswers simulates nGood reliable workers (accuracy acc) and
// nSpam spammers (random answers) over nPairs pairs where every third pair
// is a true match.
func buildNoisyAnswers(seed int64, nPairs, nGood, nSpam int, acc float64) ([]Answer, map[record.Pair]bool) {
	rng := rand.New(rand.NewSource(seed))
	truth := make(map[record.Pair]bool)
	var answers []Answer
	for i := 0; i < nPairs; i++ {
		p := mk(2*i, 2*i+1)
		isMatch := i%3 == 0
		truth[p] = isMatch
		w := 0
		for g := 0; g < nGood; g++ {
			ans := isMatch
			if rng.Float64() > acc {
				ans = !ans
			}
			answers = append(answers, Answer{Pair: p, Worker: w, Match: ans})
			w++
		}
		for s := 0; s < nSpam; s++ {
			answers = append(answers, Answer{Pair: p, Worker: w, Match: rng.Intn(2) == 0})
			w++
		}
	}
	return answers, truth
}

func TestDawidSkeneBeatsMajorityWithSpammers(t *testing.T) {
	// 2 good workers + 3 spammers per pair: majority is dominated by
	// spam, EM should learn to discount the spammers. (Workers are
	// consistent across pairs, which is what EM exploits.)
	rng := rand.New(rand.NewSource(5))
	nPairs := 400
	truth := make(map[record.Pair]bool)
	var answers []Answer
	for i := 0; i < nPairs; i++ {
		p := mk(2*i, 2*i+1)
		isMatch := i%3 == 0
		truth[p] = isMatch
		// Workers 0-1: 95% accurate. Workers 2-4: pure coin flips.
		for w := 0; w < 2; w++ {
			ans := isMatch
			if rng.Float64() > 0.95 {
				ans = !ans
			}
			answers = append(answers, Answer{Pair: p, Worker: w, Match: ans})
		}
		for w := 2; w < 5; w++ {
			answers = append(answers, Answer{Pair: p, Worker: w, Match: rng.Intn(2) == 0})
		}
	}
	ds := DawidSkene(answers, DawidSkeneOptions{})
	mv := MajorityVote(answers)
	errCount := func(post Posterior) int {
		e := 0
		for p, isMatch := range truth {
			if (post[p] >= 0.5) != isMatch {
				e++
			}
		}
		return e
	}
	dsErr, mvErr := errCount(ds), errCount(mv)
	if dsErr >= mvErr {
		t.Errorf("Dawid-Skene errors (%d) should be below majority vote (%d)", dsErr, mvErr)
	}
	if dsErr > nPairs/10 {
		t.Errorf("Dawid-Skene errors = %d; want < %d", dsErr, nPairs/10)
	}
}

func TestDawidSkeneNoisyRecovers(t *testing.T) {
	answers, truth := buildNoisyAnswers(7, 300, 3, 0, 0.9)
	post := DawidSkene(answers, DawidSkeneOptions{})
	errs := 0
	for p, isMatch := range truth {
		if (post[p] >= 0.5) != isMatch {
			errs++
		}
	}
	if errs > 15 {
		t.Errorf("EM with 3 x 90%% workers made %d/300 errors; want <= 15", errs)
	}
}

func TestDawidSkenePosteriorBounds(t *testing.T) {
	answers, _ := buildNoisyAnswers(11, 100, 2, 2, 0.8)
	post := DawidSkene(answers, DawidSkeneOptions{})
	for p, v := range post {
		if v < 0 || v > 1 {
			t.Fatalf("posterior(%v) = %v outside [0,1]", p, v)
		}
	}
}

// Satellite: incremental Dawid–Skene re-aggregation under partial answer
// sets — the async execute stage re-aggregates the answers collected so
// far each time a HIT completes. Re-aggregating the growing union after
// each batch must (a) stay well-formed at every step, (b) agree with the
// one-shot aggregation on decisively judged pairs once a pair's answers
// are all in, and (c) converge bit-identically to the one-shot posterior
// of the full set when the last batch lands.
func TestDawidSkeneIncrementalReaggregationConverges(t *testing.T) {
	answers, _ := buildNoisyAnswers(17, 120, 3, 1, 0.9)
	canonical := func(as []Answer) []Answer {
		out := append([]Answer(nil), as...)
		SortCanonical(out)
		return out
	}
	oneShot := DawidSkene(canonical(answers), DawidSkeneOptions{})

	// Answers land HIT by HIT: each batch is the complete answer set of a
	// group of pairs (4 answers per pair × 10 pairs per batch).
	const perPair, pairsPerBatch = 4, 10
	batch := perPair * pairsPerBatch
	var sofar []Answer
	var final Posterior
	for start := 0; start < len(answers); start += batch {
		end := start + batch
		if end > len(answers) {
			end = len(answers)
		}
		sofar = append(sofar, answers[start:end]...)
		final = DawidSkene(canonical(sofar), DawidSkeneOptions{})
		if len(final) != len(sofar)/perPair {
			t.Fatalf("partial aggregation covers %d pairs; want %d", len(final), len(sofar)/perPair)
		}
		for p, v := range final {
			if v < 0 || v > 1 {
				t.Fatalf("partial posterior(%v) = %v outside [0,1]", p, v)
			}
			// Decisively judged pairs keep their decision as more
			// evidence about the workers accumulates.
			if ref := oneShot[p]; ref > 0.9 || ref < 0.1 {
				if (v >= 0.5) != (ref >= 0.5) {
					t.Errorf("pair %v flips decision under partial evidence: %v vs one-shot %v", p, v, ref)
				}
			}
		}
	}

	// The last re-aggregation saw exactly the full canonical answer set,
	// so it must equal the one-shot posterior bit-for-bit.
	if len(final) != len(oneShot) {
		t.Fatalf("final incremental aggregation covers %d pairs; one-shot %d", len(final), len(oneShot))
	}
	for p, v := range oneShot {
		if got := final[p]; got != v {
			t.Fatalf("incremental posterior(%v) = %v; one-shot %v — re-aggregation is not order-invariant", p, got, v)
		}
	}
}
