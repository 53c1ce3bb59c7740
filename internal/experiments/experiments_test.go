package experiments

import (
	"strconv"
	"strings"
	"testing"

	"github.com/crowder/crowder/internal/eval"
)

// sharedEnv is built once; the experiment drivers are read-mostly (the
// join cache mutates but is idempotent), and tests here run sequentially.
var sharedEnv = NewEnv(1)

func TestTable2RestaurantShape(t *testing.T) {
	r := sharedEnv.Table2(sharedEnv.Restaurant)
	if len(r.Rows) != 6 {
		t.Fatalf("got %d rows; want 6", len(r.Rows))
	}
	// Monotonicity: lower threshold keeps more pairs and never less recall.
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].TotalPairs < r.Rows[i-1].TotalPairs {
			t.Errorf("row %d: pairs %d < previous %d", i, r.Rows[i].TotalPairs, r.Rows[i-1].TotalPairs)
		}
		if r.Rows[i].Recall < r.Rows[i-1].Recall-1e-9 {
			t.Errorf("row %d: recall %.3f < previous %.3f", i, r.Rows[i].Recall, r.Rows[i-1].Recall)
		}
	}
	// Paper's punchline: threshold 0.2 reaches full recall on Restaurant
	// with two orders of magnitude fewer pairs than the total.
	row02 := r.Rows[3]
	if row02.Recall < 0.999 {
		t.Errorf("recall@0.2 = %.3f; want 1.0", row02.Recall)
	}
	total := r.Rows[5].TotalPairs
	if row02.TotalPairs*10 > total {
		t.Errorf("pruning too weak: %d of %d pairs kept at 0.2", row02.TotalPairs, total)
	}
	if !strings.Contains(r.String(), "Restaurant") {
		t.Error("String() should mention the dataset")
	}
}

func TestTable2ProductShape(t *testing.T) {
	r := sharedEnv.Table2(sharedEnv.Product)
	// Product is the hard dataset: recall at 0.5 far below Restaurant's.
	if r.Rows[0].Recall > 0.5 {
		t.Errorf("Product recall@0.5 = %.3f; want < 0.5 (paper: 30.5%%)", r.Rows[0].Recall)
	}
	if r.Rows[3].Recall < 0.85 {
		t.Errorf("Product recall@0.2 = %.3f; want >= 0.85 (paper: 92.2%%)", r.Rows[3].Recall)
	}
	if r.Rows[5].Recall < 0.999 {
		t.Errorf("Product recall@0 = %.3f; want 1.0", r.Rows[5].Recall)
	}
}

func TestFigure10TwoTieredWins(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment replay; skipped in -short mode")
	}
	r, err := sharedEnv.Figure10(sharedEnv.Restaurant)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 5 {
		t.Fatalf("got %d series; want 5", len(r.Series))
	}
	// Section 7.2: "the two-tiered approach generated the fewest
	// cluster-based HITs" at every threshold, "with the differences being
	// greater for smaller thresholds".
	for i := range r.Values {
		tt := r.CountFor("Two-tiered", i)
		for _, s := range r.Series {
			if s.Generator == "Two-tiered" {
				continue
			}
			if s.Counts[i] < tt {
				t.Errorf("at threshold %.1f, %s (%d) beat two-tiered (%d)",
					r.Values[i], s.Generator, s.Counts[i], tt)
			}
		}
	}
	// Differences grow as the threshold shrinks: compare the ratio vs the
	// best baseline at 0.5 and at 0.1.
	best := func(i int) int {
		b := 1 << 30
		for _, s := range r.Series {
			if s.Generator != "Two-tiered" && s.Counts[i] < b {
				b = s.Counts[i]
			}
		}
		return b
	}
	hiRatio := float64(best(0)) / float64(r.CountFor("Two-tiered", 0))
	loRatio := float64(best(len(r.Values)-1)) / float64(r.CountFor("Two-tiered", len(r.Values)-1))
	if loRatio < hiRatio {
		t.Errorf("advantage should grow at smaller thresholds: ratio@0.5=%.2f ratio@0.1=%.2f", hiRatio, loRatio)
	}
}

func TestFigure11TwoTieredWinsAllK(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment replay; skipped in -short mode")
	}
	r, err := sharedEnv.Figure11(sharedEnv.Product)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r.Values {
		tt := r.CountFor("Two-tiered", i)
		for _, s := range r.Series {
			if s.Generator != "Two-tiered" && s.Counts[i] < tt {
				t.Errorf("at k=%.0f, %s (%d) beat two-tiered (%d)",
					r.Values[i], s.Generator, s.Counts[i], tt)
			}
		}
		// HIT counts fall as k grows for every generator.
		if i > 0 {
			for _, s := range r.Series {
				if s.Counts[i] > s.Counts[i-1] {
					t.Errorf("%s: HITs rose from k=%.0f to k=%.0f", s.Generator, r.Values[i-1], r.Values[i])
				}
			}
		}
	}
}

func TestFigure12ProductHybridDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment replay; skipped in -short mode")
	}
	r, err := sharedEnv.Figure12(sharedEnv.Product, 0.2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 4 {
		t.Fatalf("got %d curves; want 4", len(r.Curves))
	}
	// Section 7.3: on Product, "hybrid and hybrid(QT) achieved
	// significantly better quality than simjoin and SVM".
	at80 := func(m string) float64 {
		return eval.PrecisionAtRecall(r.Curve(m).Points, 0.8)
	}
	if at80("hybrid") < at80("simjoin")+0.2 {
		t.Errorf("hybrid P@80R (%.2f) should dominate simjoin (%.2f)", at80("hybrid"), at80("simjoin"))
	}
	if at80("hybrid") < at80("SVM")+0.2 {
		t.Errorf("hybrid P@80R (%.2f) should dominate SVM (%.2f)", at80("hybrid"), at80("SVM"))
	}
	// The QT variant is at least as good as plain hybrid.
	if at80("hybrid(QT)") < at80("hybrid")-0.05 {
		t.Errorf("hybrid(QT) (%.2f) should not trail hybrid (%.2f)", at80("hybrid(QT)"), at80("hybrid"))
	}
	// The hybrid's max recall is capped by the machine prune (92.2% in the
	// paper at threshold 0.2): it cannot reach 100%.
	if mr := eval.MaxRecall(r.Curve("hybrid").Points); mr > 0.995 {
		t.Errorf("hybrid max recall = %.3f; pruning should cap it below 1", mr)
	}
	checkGolden(t, "figure12_product.golden", r.String())
}

func TestFigure12RestaurantComparable(t *testing.T) {
	r, err := sharedEnv.Figure12(sharedEnv.Restaurant, 0.35, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Section 7.3: on Restaurant the hybrid workflow is comparable to the
	// learning-based SVM (within a reasonable band at 80% recall).
	h := eval.PrecisionAtRecall(r.Curve("hybrid(QT)").Points, 0.8)
	s := eval.PrecisionAtRecall(r.Curve("SVM").Points, 0.8)
	if h < s-0.25 {
		t.Errorf("hybrid(QT) P@80R (%.2f) should be comparable to SVM (%.2f)", h, s)
	}
}

func TestPairVsClusterProduct(t *testing.T) {
	r, err := sharedEnv.PairVsCluster(sharedEnv.Product, 0.2, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 4 {
		t.Fatalf("got %d runs; want 4", len(r.Runs))
	}
	p := r.Run("P" + strconv.Itoa(r.PairsPerHIT))
	c := r.Run("C10")
	if p == nil || c == nil {
		t.Fatal("missing runs")
	}
	// Figure 13(a): a cluster-based HIT takes less time per assignment.
	if c.MedianAssignmentSeconds >= p.MedianAssignmentSeconds {
		t.Errorf("cluster median (%.0f s) should be below pair median (%.0f s)",
			c.MedianAssignmentSeconds, p.MedianAssignmentSeconds)
	}
	// Figure 14(a): pair-based HITs finish earlier overall on Product
	// (more workers are attracted to the familiar interface).
	if p.TotalMinutes >= c.TotalMinutes {
		t.Errorf("pair total (%.1f min) should beat cluster total (%.1f min) on Product",
			p.TotalMinutes, c.TotalMinutes)
	}
	// Figure 15(a): quality is similar.
	pq := eval.PrecisionAtRecall(p.Points, 0.8)
	cq := eval.PrecisionAtRecall(c.Points, 0.8)
	if pq-cq > 0.15 || cq-pq > 0.15 {
		t.Errorf("pair (%.2f) and cluster (%.2f) quality should be similar", pq, cq)
	}
}

func TestPairVsClusterProductDup(t *testing.T) {
	r, err := sharedEnv.PairVsCluster(sharedEnv.ProductDup, 0.2, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := r.Run("P" + strconv.Itoa(r.PairsPerHIT))
	c := r.Run("C10")
	// Figure 13(b): with many matches the cluster advantage is dramatic.
	if c.MedianAssignmentSeconds*2 >= p.MedianAssignmentSeconds {
		t.Errorf("cluster median (%.0f s) should be under half the pair median (%.0f s)",
			c.MedianAssignmentSeconds, p.MedianAssignmentSeconds)
	}
	// Figure 14(b): cluster-based HITs also win in total completion time.
	if c.TotalMinutes >= p.TotalMinutes {
		t.Errorf("cluster total (%.1f min) should beat pair total (%.1f min) on Product+Dup",
			c.TotalMinutes, p.TotalMinutes)
	}
	// The pair batch size exceeds Product's (28 vs 16 in the paper).
	if r.PairsPerHIT <= 10 {
		t.Errorf("PairsPerHIT = %d; expected a large batch on Product+Dup", r.PairsPerHIT)
	}
}

func TestQTIncreasesLatency(t *testing.T) {
	r, err := sharedEnv.PairVsCluster(sharedEnv.Product, 0.2, 10)
	if err != nil {
		t.Fatal(err)
	}
	c, cqt := r.Run("C10"), r.Run("C10 (QT)")
	if cqt.TotalMinutes <= c.TotalMinutes {
		t.Errorf("QT should lengthen completion: %.1f vs %.1f min", cqt.TotalMinutes, c.TotalMinutes)
	}
}

func TestAblationPackingExactNotWorse(t *testing.T) {
	r, err := sharedEnv.AblationPacking(sharedEnv.Restaurant)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0].Value > r.Rows[1].Value {
		t.Errorf("exact packing (%v HITs) should not be worse than FFD (%v)", r.Rows[0].Value, r.Rows[1].Value)
	}
}

func TestAblationEMBeatsMajority(t *testing.T) {
	r, err := sharedEnv.AblationEM(sharedEnv.Restaurant, 0.35, 10)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0].Value <= r.Rows[1].Value {
		t.Errorf("EM accuracy (%v) should beat majority vote (%v) under spammers",
			r.Rows[0].Value, r.Rows[1].Value)
	}
}

func TestAblationTieBreakHelps(t *testing.T) {
	// The min-outdegree tie-break should not increase HITs (it exists to
	// keep the carved components tight).
	r, err := sharedEnv.AblationTieBreak(sharedEnv.Restaurant)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rows[0].Value > r.Rows[1].Value {
		t.Errorf("tie-break (%v) should not generate more HITs than no tie-break (%v)",
			r.Rows[0].Value, r.Rows[1].Value)
	}
}

func TestExtensionActiveVsHybrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full experiment replay; skipped in -short mode")
	}
	// On Product — where learned similarity features are weak (the paper's
	// Figure 12(b) shows SVM failing) — spending the human budget on
	// CrowdER verification must beat spending it on classifier training.
	r, err := sharedEnv.ActiveVsHybrid(sharedEnv.Product, 0.2, 10)
	if err != nil {
		t.Fatal(err)
	}
	hybrid, activeL := r.Rows[0].Value, r.Rows[1].Value
	if hybrid <= activeL {
		t.Errorf("on Product, hybrid AUC (%.3f) should beat active learning (%.3f)", hybrid, activeL)
	}
	if r.HumanJudgments <= 0 {
		t.Error("budget not recorded")
	}
	if !strings.Contains(r.String(), "Product") {
		t.Error("String() should mention the dataset")
	}
	checkGolden(t, "extension_active_product.golden", r.String())
}

func TestExtensionScale(t *testing.T) {
	r, err := sharedEnv.Scale([]int{200, 400}, 0.2, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("got %d rows; want 2", len(r.Rows))
	}
	small, big := r.Rows[0], r.Rows[1]
	if big.SimJoinCandidates <= small.SimJoinCandidates {
		t.Error("candidates should grow with dataset size")
	}
	if big.HITs <= small.HITs {
		t.Error("HITs should grow with dataset size")
	}
	// Capped blocking keeps most matches.
	for _, row := range r.Rows {
		if row.BlockingCompleteness < 0.9 {
			t.Errorf("n=%d: completeness %.2f below 0.9", row.Records, row.BlockingCompleteness)
		}
		if row.BlockingCandidates > row.SimJoinCandidates*2 {
			t.Errorf("n=%d: blocking produced %d candidates vs simjoin %d", row.Records, row.BlockingCandidates, row.SimJoinCandidates)
		}
	}
	if !strings.Contains(r.String(), "scaling study") {
		t.Error("String() header missing")
	}
	// Exact counts: the blocking columns and the HIT counts are pinned so
	// that a change to either candidate source shows up here.
	want := []ScaleRow{
		{Records: 200, SimJoinCandidates: 1470, BlockingCandidates: 1470, BlockingCompleteness: 1, HITs: 70},
		{Records: 400, SimJoinCandidates: 4831, BlockingCandidates: 4772, BlockingCompleteness: 1, HITs: 224},
	}
	for i, row := range r.Rows {
		row.SimJoinMillis, row.BlockingMillis = 0, 0
		if row != want[i] {
			t.Errorf("row %d = %+v; want %+v", i, row, want[i])
		}
	}
}
