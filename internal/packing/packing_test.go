package packing

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// verifyPacking checks Definition 1's requirements at the packing level:
// every input size appears in exactly one bin, and no bin exceeds k.
func verifyPacking(t *testing.T, sizes []int, bins [][]int, k int) {
	t.Helper()
	want := map[int]int{}
	for _, s := range sizes {
		want[s]++
	}
	got := map[int]int{}
	for _, b := range bins {
		fill := 0
		for _, s := range b {
			got[s]++
			fill += s
		}
		if fill > k {
			t.Fatalf("bin %v exceeds capacity %d", b, k)
		}
		if len(b) == 0 {
			t.Fatal("empty bin emitted")
		}
	}
	for s, c := range want {
		if got[s] != c {
			t.Fatalf("size %d packed %d times; want %d (bins %v)", s, got[s], c, bins)
		}
	}
	for s := range got {
		if want[s] == 0 {
			t.Fatalf("size %d appears in bins but not in input", s)
		}
	}
}

func TestPatternFeasible(t *testing.T) {
	// Paper example: k=4, p1 = [0,0,0,1] is feasible (4 ≤ 4).
	p1 := Pattern{Count: []int{0, 0, 0, 1}}
	if p1.Slots() != 4 {
		t.Fatalf("p1 slots=%d; want 4", p1.Slots())
	}
	p2 := Pattern{Count: []int{1, 0, 0, 1}}
	if p2.Slots() <= 4 {
		t.Fatal("[1,0,0,1] uses 5 slots and must be infeasible for k=4")
	}
}

func TestDemands(t *testing.T) {
	// Section 5.3's example: SCC sizes {4, 4, 2, 2} with k=4 give
	// c1=0, c2=2, c3=0, c4=2.
	c, err := Demands([]int{4, 4, 2, 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 2, 0, 2}
	for j := range want {
		if c[j] != want[j] {
			t.Fatalf("Demands = %v; want %v", c, want)
		}
	}
	if _, err := Demands([]int{5}, 4); err == nil {
		t.Fatal("oversized component should error")
	}
	if _, err := Demands([]int{0}, 4); err == nil {
		t.Fatal("zero-size component should error")
	}
}

func TestFFDBasic(t *testing.T) {
	sizes := []int{4, 4, 2, 2}
	bins, err := FirstFitDecreasing(sizes, 4)
	if err != nil {
		t.Fatal(err)
	}
	verifyPacking(t, sizes, bins, 4)
	// FFD: 4|4|2+2 → 3 bins, which matches the paper's optimal packing.
	if len(bins) != 3 {
		t.Fatalf("FFD used %d bins; want 3", len(bins))
	}
}

func TestFFDRejectsBadSizes(t *testing.T) {
	if _, err := FirstFitDecreasing([]int{3, 9}, 4); err == nil {
		t.Fatal("size > k should error")
	}
}

func TestSolvePaperExample(t *testing.T) {
	// Section 5.3: packing {4, 4, 2, 2} with k=4 optimally needs 3 HITs
	// (x1=2 of pattern [0,0,0,1] and x2=1 of pattern [0,2,0,0]); the
	// suboptimal solution with 4 HITs must be avoided.
	sizes := []int{4, 4, 2, 2}
	res, err := Solve(sizes, 4)
	if err != nil {
		t.Fatal(err)
	}
	verifyPacking(t, sizes, res.Bins, 4)
	if res.NumBins() != 3 {
		t.Fatalf("Solve used %d bins; want 3", res.NumBins())
	}
	if !res.Optimal {
		t.Error("Solve should certify optimality here")
	}
	if res.LowerBound != 3 {
		t.Errorf("LowerBound = %d; want 3", res.LowerBound)
	}
}

func TestSolveEmpty(t *testing.T) {
	res, err := Solve(nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumBins() != 0 || !res.Optimal {
		t.Fatalf("empty solve = %+v", res)
	}
}

func TestSolveCapacityErrors(t *testing.T) {
	if _, err := Solve([]int{1}, 0); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := Solve([]int{7}, 4); err == nil {
		t.Fatal("size > k should error")
	}
}

func TestSolveAllSingletons(t *testing.T) {
	sizes := make([]int, 17)
	for i := range sizes {
		sizes[i] = 1
	}
	res, err := Solve(sizes, 5)
	if err != nil {
		t.Fatal(err)
	}
	verifyPacking(t, sizes, res.Bins, 5)
	if res.NumBins() != 4 { // ceil(17/5)
		t.Fatalf("bins = %d; want 4", res.NumBins())
	}
}

func TestSolveTightTriples(t *testing.T) {
	// Six components of size 3 with k=9: exactly 2 bins.
	sizes := []int{3, 3, 3, 3, 3, 3}
	res, err := Solve(sizes, 9)
	if err != nil {
		t.Fatal(err)
	}
	verifyPacking(t, sizes, res.Bins, 9)
	if res.NumBins() != 2 {
		t.Fatalf("bins = %d; want 2", res.NumBins())
	}
}

func TestSolveBeatsNaiveOnMixedSizes(t *testing.T) {
	// Sizes engineered so one-bin-per-component would need 8 but the
	// optimum is the volume bound.
	sizes := []int{6, 4, 6, 4, 5, 5, 3, 7}
	k := 10
	res, err := Solve(sizes, k)
	if err != nil {
		t.Fatal(err)
	}
	verifyPacking(t, sizes, res.Bins, k)
	if res.NumBins() != 4 { // volume = 40, k = 10
		t.Fatalf("bins = %d; want 4 (volume bound)", res.NumBins())
	}
}

func TestSolveLowerBoundNeverExceeded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		k := 4 + rng.Intn(12)
		n := 1 + rng.Intn(40)
		sizes := make([]int, n)
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(k)
		}
		res, err := Solve(sizes, k)
		if err != nil {
			t.Fatal(err)
		}
		verifyPacking(t, sizes, res.Bins, k)
		if res.NumBins() < res.LowerBound {
			t.Fatalf("bins %d below lower bound %d", res.NumBins(), res.LowerBound)
		}
		ffd, _ := FirstFitDecreasing(sizes, k)
		if res.NumBins() > len(ffd) {
			t.Fatalf("Solve (%d bins) worse than FFD (%d bins)", res.NumBins(), len(ffd))
		}
	}
}

// Property: FFD output is a valid packing with at most one bin per item and
// at least the volume bound.
func TestFFDValidityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 3 + rng.Intn(15)
		n := rng.Intn(50)
		sizes := make([]int, n)
		vol := 0
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(k)
			vol += sizes[i]
		}
		bins, err := FirstFitDecreasing(sizes, k)
		if err != nil {
			return false
		}
		count := 0
		for _, b := range bins {
			fill := 0
			for _, s := range b {
				fill += s
				count++
			}
			if fill > k {
				return false
			}
		}
		lb := (vol + k - 1) / k
		return count == n && len(bins) >= lb && len(bins) <= n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// Property: Solve never uses more bins than FFD and never fewer than the
// volume bound.
func TestSolveSandwichProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := 3 + rng.Intn(10)
		n := rng.Intn(30)
		sizes := make([]int, n)
		vol := 0
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(k)
			vol += sizes[i]
		}
		res, err := Solve(sizes, k)
		if err != nil {
			return false
		}
		ffd, _ := FirstFitDecreasing(sizes, k)
		lb := (vol + k - 1) / k
		return res.NumBins() >= lb && res.NumBins() <= len(ffd)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSimplexKnownLP(t *testing.T) {
	// max 3x + 5y s.t. x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → optimum 36 at (2, 6).
	res, err := simplexMax(
		[]float64{3, 5},
		[][]float64{{1, 0}, {0, 2}, {3, 2}},
		[]float64{4, 12, 18},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.objective < 35.999 || res.objective > 36.001 {
		t.Fatalf("objective = %v; want 36", res.objective)
	}
	if res.y[0] < 1.999 || res.y[0] > 2.001 || res.y[1] < 5.999 || res.y[1] > 6.001 {
		t.Fatalf("solution = %v; want (2, 6)", res.y)
	}
}

func TestSimplexUnbounded(t *testing.T) {
	// max x s.t. -x ≤ 1 → unbounded.
	_, err := simplexMax([]float64{1}, [][]float64{{-1}}, []float64{1})
	if err == nil {
		t.Fatal("unbounded LP should error")
	}
}

func TestSimplexDegenerateDoesNotCycle(t *testing.T) {
	// Classic degenerate instance; must terminate.
	res, err := simplexMax(
		[]float64{10, -57, -9, -24},
		[][]float64{
			{0.5, -5.5, -2.5, 9},
			{0.5, -1.5, -0.5, 1},
			{1, 0, 0, 0},
		},
		[]float64{0, 0, 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if res.objective < 0.999 || res.objective > 1.001 {
		t.Fatalf("objective = %v; want 1", res.objective)
	}
}

func TestPriceKnapsack(t *testing.T) {
	// Duals: size 2 worth 0.5, size 3 worth 0.9, k = 6.
	y := []float64{0, 0.5, 0.9, 0, 0, 0}
	p, v := priceKnapsack(y, 6)
	// Best: two size-3 items → value 1.8.
	if v < 1.799 || v > 1.801 {
		t.Fatalf("knapsack value = %v; want 1.8", v)
	}
	if p.Count[2] != 2 {
		t.Fatalf("pattern = %v; want two size-3 items", p)
	}
	if p.Slots() > 6 {
		t.Fatal("priced pattern must be feasible")
	}
}

func TestPriceKnapsackZeroDuals(t *testing.T) {
	p, v := priceKnapsack(make([]float64, 5), 5)
	if v != 0 || p.Slots() != 0 {
		t.Fatalf("zero duals should price an empty pattern; got %v value %v", p, v)
	}
}

func TestColumnGenerationConverges(t *testing.T) {
	demands := []int{0, 5, 0, 3, 0, 0, 0, 0, 0, 0} // five 2s, three 4s, k=10
	cols, x, iters, err := columnGeneration(demands, 10)
	if err != nil {
		t.Fatal(err)
	}
	if iters < 1 {
		t.Fatal("no iterations recorded")
	}
	// The LP must cover demand: Σ_i a_ij x_i ≥ c_j.
	for j := 0; j < 10; j++ {
		var cov float64
		for i, p := range cols {
			cov += float64(p.Count[j]) * x[i]
		}
		if cov < float64(demands[j])-1e-6 {
			t.Fatalf("LP coverage for size %d = %v < demand %d", j+1, cov, demands[j])
		}
	}
	// LP optimum must be ≥ volume/k = (10+12)/10 = 2.2.
	var obj float64
	for _, v := range x {
		obj += v
	}
	if obj < 2.2-1e-6 {
		t.Fatalf("LP objective %v below volume bound 2.2", obj)
	}
}

func BenchmarkSolveMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	sizes := make([]int, 300)
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(sizes, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFFDMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	sizes := make([]int, 300)
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(10)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FirstFitDecreasing(sizes, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// canonicalBins orders bins by descending fill, then by their printed
// forms as strings, not as numbers: "[10]" sorts before "[9 1]". HIT
// order downstream depends on it.
func TestCanonicalBinsOrder(t *testing.T) {
	got := canonicalBins([][]int{{1, 9}, {2, 2}, {10}, {1, 1, 2}, {3}, {4}})
	want := [][]int{{10}, {9, 1}, {2, 1, 1}, {2, 2}, {4}, {3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("canonicalBins = %v; want %v", got, want)
	}
}
