package simjoin

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/similarity"
)

// paperTable builds Table 1 of the paper (nine product records).
func paperTable() *record.Table {
	t := record.NewTable("product_name", "price")
	t.Append("iPad Two 16GB WiFi White", "$490")               // r1 (ID 0)
	t.Append("iPad 2nd generation 16GB WiFi White", "$469")    // r2 (ID 1)
	t.Append("iPhone 4th generation White 16GB", "$545")       // r3 (ID 2)
	t.Append("Apple iPhone 4 16GB White", "$520")              // r4 (ID 3)
	t.Append("Apple iPhone 3rd generation Black 16GB", "$375") // r5 (ID 4)
	t.Append("iPhone 4 32GB White", "$599")                    // r6 (ID 5)
	t.Append("Apple iPad2 16GB WiFi White", "$499")            // r7 (ID 6)
	t.Append("Apple iPod shuffle 2GB Blue", "$49")             // r8 (ID 7)
	t.Append("Apple iPod shuffle USB Cable", "$19")            // r9 (ID 8)
	return t
}

func TestJoinMatchesBruteForce(t *testing.T) {
	tab := paperTable()
	for _, tau := range []float64{0, 0.1, 0.2, 0.3, 0.5, 0.8} {
		got := Join(tab, Options{Threshold: tau})
		want := BruteForce(tab, Options{Threshold: tau})
		if len(got) != len(want) {
			t.Fatalf("tau=%v: Join found %d pairs, BruteForce %d", tau, len(got), len(want))
		}
		for i := range want {
			if got[i].Pair != want[i].Pair || got[i].Likelihood != want[i].Likelihood {
				t.Fatalf("tau=%v: mismatch at %d: %v vs %v", tau, i, got[i], want[i])
			}
		}
	}
}

func TestJoinThresholdZeroIsAllPairs(t *testing.T) {
	tab := paperTable()
	got := Join(tab, Options{Threshold: 0})
	n := tab.Len()
	if len(got) != n*(n-1)/2 {
		t.Fatalf("threshold 0 should return all %d pairs; got %d", n*(n-1)/2, len(got))
	}
}

func TestJoinSortedByLikelihood(t *testing.T) {
	tab := paperTable()
	got := Join(tab, Options{Threshold: 0.1})
	for i := 1; i < len(got); i++ {
		if got[i-1].Likelihood < got[i].Likelihood {
			t.Fatal("results not sorted by likelihood descending")
		}
	}
}

func TestJoinPaperExamplePairKnown(t *testing.T) {
	// In the paper's workflow example (Example 1, threshold 0.3), (r1, r2)
	// survives. Note: the paper computes Jaccard on Product Name only; our
	// simjoin follows Section 7.1 and uses tokens from all attributes, so we
	// assert presence rather than the exact value.
	tab := paperTable()
	got := Join(tab, Options{Threshold: 0.3})
	found := false
	for _, sp := range got {
		if sp.Pair == record.MakePair(0, 1) {
			found = true
		}
	}
	if !found {
		t.Fatal("(r1, r2) should survive threshold 0.3")
	}
}

func TestCrossSourceOnly(t *testing.T) {
	tab := record.NewTable("name")
	tab.AppendFrom(0, "apple ipod touch 8gb")
	tab.AppendFrom(0, "apple ipod touch 8gb black")
	tab.AppendFrom(1, "apple ipod touch 8gb 2nd gen")
	all := Join(tab, Options{Threshold: 0.1})
	cross := Join(tab, Options{Threshold: 0.1, CrossSourceOnly: true})
	if len(all) != 3 {
		t.Fatalf("all-pairs join found %d pairs; want 3", len(all))
	}
	if len(cross) != 2 {
		t.Fatalf("cross-source join found %d pairs; want 2", len(cross))
	}
	for _, sp := range cross {
		if tab.Source[sp.Pair.A] == tab.Source[sp.Pair.B] {
			t.Fatal("cross-source join returned a same-source pair")
		}
	}
	bf := BruteForce(tab, Options{Threshold: 0.1, CrossSourceOnly: true})
	if len(bf) != len(cross) {
		t.Fatalf("brute force cross-source found %d; want %d", len(bf), len(cross))
	}
}

func TestFilterThreshold(t *testing.T) {
	sp := []ScoredPair{
		{Pair: record.Pair{A: 0, B: 1}, Likelihood: 0.9},
		{Pair: record.Pair{A: 0, B: 2}, Likelihood: 0.5},
		{Pair: record.Pair{A: 1, B: 2}, Likelihood: 0.2},
	}
	got := FilterThreshold(sp, 0.5)
	if len(got) != 2 {
		t.Fatalf("FilterThreshold(0.5) kept %d pairs; want 2", len(got))
	}
	if got[1].Likelihood != 0.5 {
		t.Error("threshold should be inclusive")
	}
}

func TestPairsExtraction(t *testing.T) {
	sp := []ScoredPair{
		{Pair: record.Pair{A: 3, B: 7}, Likelihood: 0.4},
		{Pair: record.Pair{A: 1, B: 2}, Likelihood: 0.3},
	}
	ps := Pairs(sp)
	if len(ps) != 2 || ps[0] != (record.Pair{A: 3, B: 7}) {
		t.Fatalf("Pairs = %v", ps)
	}
}

func TestSortScoredTieBreak(t *testing.T) {
	sp := []ScoredPair{
		{Pair: record.Pair{A: 2, B: 3}, Likelihood: 0.5},
		{Pair: record.Pair{A: 0, B: 1}, Likelihood: 0.5},
		{Pair: record.Pair{A: 0, B: 9}, Likelihood: 0.7},
	}
	SortScored(sp)
	if sp[0].Likelihood != 0.7 {
		t.Fatal("highest likelihood should come first")
	}
	if sp[1].Pair != (record.Pair{A: 0, B: 1}) {
		t.Fatal("ties should break on canonical pair order")
	}
}

// randomTable builds a table of records with random tokens drawn from a
// small vocabulary, so that pairs span the full similarity range.
func randomTable(seed int64, n int) *record.Table {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"apple", "ipad", "iphone", "ipod", "16gb", "32gb",
		"white", "black", "wifi", "generation", "shuffle", "cable", "usb"}
	tab := record.NewTable("name")
	for i := 0; i < n; i++ {
		k := 2 + rng.Intn(6)
		toks := make([]string, 0, k)
		for j := 0; j < k; j++ {
			toks = append(toks, vocab[rng.Intn(len(vocab))])
		}
		tab.Append(fmt.Sprint(toks))
	}
	return tab
}

// Property: prefix-filtered join ≡ brute force for random tables and
// random thresholds.
func TestJoinEquivalenceProperty(t *testing.T) {
	f := func(seed int64, tRaw uint8) bool {
		tau := float64(tRaw%11) / 10 // 0.0 .. 1.0
		tab := randomTable(seed, 25)
		got := Join(tab, Options{Threshold: tau})
		want := BruteForce(tab, Options{Threshold: tau})
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i].Pair != want[i].Pair || got[i].Likelihood != want[i].Likelihood {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: monotonicity — raising the threshold never adds pairs, and the
// retained set at a higher threshold is a subset of the lower one.
func TestJoinMonotonicityProperty(t *testing.T) {
	f := func(seed int64) bool {
		tab := randomTable(seed, 20)
		lo := Join(tab, Options{Threshold: 0.2})
		hi := Join(tab, Options{Threshold: 0.6})
		if len(hi) > len(lo) {
			return false
		}
		loSet := make(map[record.Pair]bool, len(lo))
		for _, sp := range lo {
			loSet[sp.Pair] = true
		}
		for _, sp := range hi {
			if !loSet[sp.Pair] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// equalScored fails the test unless two scored slices are identical.
func equalScored(t *testing.T, label string, got, want []ScoredPair) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pairs vs %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: mismatch at %d: %v vs %v", label, i, got[i], want[i])
		}
	}
}

// Acceptance: parallel Join is deterministic and equal to BruteForce on
// the Restaurant and Product generators at thresholds {0, 0.3, 0.5, 0.8},
// at parallelism 1 and 8. Run with -race to catch sharding races.
func TestJoinParallelEquivalenceDatasets(t *testing.T) {
	cases := []struct {
		name  string
		table *record.Table
		cross bool
	}{
		{"Restaurant", dataset.RestaurantN(1, 200, 30).Table, false},
		{"Product", dataset.ProductN(1, 110, 110, 40).Table, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, tau := range []float64{0, 0.3, 0.5, 0.8} {
				opts := Options{Threshold: tau, CrossSourceOnly: c.cross}
				want := BruteForce(c.table, opts)
				for _, par := range []int{1, 2, 8} {
					opts.Parallelism = par
					got := Join(c.table, opts)
					equalScored(t, fmt.Sprintf("tau=%v par=%d", tau, par), got, want)
				}
			}
		})
	}
}

// Records with empty token sets follow the empty-set convention
// (similarity 1 with each other) on both the indexed and brute-force
// paths.
func TestJoinEmptyRecords(t *testing.T) {
	tab := record.NewTable("name")
	tab.Append("apple ipad")
	tab.Append("") // no tokens
	tab.Append("~~ ~~")
	tab.Append("apple ipad wifi")
	for _, tau := range []float64{0, 0.4, 1} {
		got := Join(tab, Options{Threshold: tau})
		want := BruteForce(tab, Options{Threshold: tau})
		equalScored(t, fmt.Sprintf("tau=%v", tau), got, want)
	}
	got := Join(tab, Options{Threshold: 0.5})
	found := false
	for _, sp := range got {
		if sp.Pair == record.MakePair(1, 2) {
			found = true
			if sp.Likelihood != 1 {
				t.Fatalf("empty-empty likelihood = %v; want 1", sp.Likelihood)
			}
		}
	}
	if !found {
		t.Fatal("empty-record pair missing from join output")
	}
}

// Regression: the seed computed the prefix length as ⌊(1−τ)·len⌋+1 in
// floating point, where 5·(1−0.8) evaluates to 0.99999… and truncates the
// prefix one short — silently dropping pairs whose Jaccard is exactly the
// threshold (here J = 4/5 = τ = 0.8 with token-set sizes 4 and 5).
func TestJoinPrefixLenFloatBoundary(t *testing.T) {
	tab := record.NewTable("name")
	tab.Append("a b c d")   // 4 tokens
	tab.Append("a b c d e") // 5 tokens, J = 4/5 with the first
	tab.Append("q r s t u v w")
	got := Join(tab, Options{Threshold: 0.8})
	want := BruteForce(tab, Options{Threshold: 0.8})
	equalScored(t, "tau=0.8 boundary", got, want)
	if len(got) != 1 || got[0].Pair != record.MakePair(0, 1) {
		t.Fatalf("boundary pair missing: %v", got)
	}
	if p := prefixLen(5, 0.8); p != 2 {
		t.Fatalf("prefixLen(5, 0.8) = %d; want 2", p)
	}
	if !passesLengthFilter(4, 5, 0.8) {
		t.Fatal("length filter pruned the exact-threshold pair")
	}
}

// Thresholds above 1 are unsatisfiable for non-empty records; they must
// return the same (near-empty) result as BruteForce, not panic on a
// negative prefix length.
func TestJoinThresholdAboveOne(t *testing.T) {
	tab := paperTable()
	got := Join(tab, Options{Threshold: 1.5})
	want := BruteForce(tab, Options{Threshold: 1.5})
	equalScored(t, "tau=1.5", got, want)
	if len(got) != 0 {
		t.Fatalf("tau=1.5 returned %d pairs; want none", len(got))
	}
	if p := prefixLen(4, 1.5); p != 0 {
		t.Fatalf("prefixLen(4, 1.5) = %d; want 0", p)
	}
}

func TestJoinParallelismDoesNotLeakGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	tab := randomTable(3, 100)
	for i := 0; i < 5; i++ {
		Join(tab, Options{Threshold: 0.3, Parallelism: 8})
	}
	// Workers signal completion from a defer, so a few may still be
	// unwinding when Join returns; poll briefly before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	after := runtime.NumGoroutine()
	for after > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		after = runtime.NumGoroutine()
	}
	if after > before+2 {
		t.Errorf("goroutines grew from %d to %d", before, after)
	}
}

func BenchmarkJoinPrefixFiltered(b *testing.B) {
	tab := randomTable(42, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Join(tab, Options{Threshold: 0.4})
	}
}

func BenchmarkJoinBruteForce(b *testing.B) {
	tab := randomTable(42, 500)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BruteForce(tab, Options{Threshold: 0.4})
	}
}

func BenchmarkJoinParallel(b *testing.B) {
	tab := randomTable(42, 500)
	tab.TokenIDs() // warm the cache outside the timing loop
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Join(tab, Options{Threshold: 0.4})
	}
}

func BenchmarkJoinRestaurantScales(b *testing.B) {
	for _, n := range []int{500, 1000, 2000} {
		tab := dataset.RestaurantN(1, n, n/8).Table
		tab.TokenIDs()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Join(tab, Options{Threshold: 0.3})
			}
		})
	}
}

// BruteForce computes the join by comparing every pair of records,
// respecting the same options. It is the testing oracle for Join: it is
// deliberately sequential and straightforward — its value is being
// obviously correct.
func BruteForce(t *record.Table, opts Options) []ScoredPair {
	ids := t.TokenIDs()
	n := t.Len()
	var out []ScoredPair
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !opts.crossOK(t, record.ID(i), record.ID(j)) {
				continue
			}
			sim := similarity.Jaccard(ids[i], ids[j])
			if sim >= opts.Threshold {
				out = append(out, ScoredPair{
					Pair:       record.Pair{A: record.ID(i), B: record.ID(j)},
					Likelihood: sim,
				})
			}
		}
	}
	SortScored(out)
	return out
}
