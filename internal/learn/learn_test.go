package learn

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/crowder/crowder/internal/record"
)

// routerFixture builds a separable training workload: n item families,
// each contributing a duplicate pair (a match: near-identical strings)
// and a cross-family pair (a non-match: unrelated strings).
func routerFixture(n int) (*record.Table, []Label) {
	t := record.NewTable("name")
	var labels []Label
	for i := 0; i < n; i++ {
		a := t.Append(fmt.Sprintf("apple ipad model %d 16gb wifi black", i))
		b := t.Append(fmt.Sprintf("apple ipad model %d 16 gb wifi black", i))
		c := t.Append(fmt.Sprintf("nikon coolpix camera s%d red zoom", i))
		labels = append(labels,
			Label{Pair: record.MakePair(a, b), Match: true},
			Label{Pair: record.MakePair(a, c), Match: false},
		)
	}
	return t, labels
}

// Training is a pure function of the label *set*: reversing the input
// order must yield a bit-identical model, margins and band — the
// property that keeps delta retraining equal to from-scratch.
func TestTrainOrderInvariant(t *testing.T) {
	tab, labels := routerFixture(20)
	reversed := make([]Label, len(labels))
	for i, l := range labels {
		reversed[len(labels)-1-i] = l
	}
	a, err := Train(tab, labels, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(tab, reversed, Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Ready() || !b.Ready() {
		t.Fatal("fixture should train a ready learner")
	}
	for _, l := range labels {
		ma, mb := a.Margin(tab, l.Pair), b.Margin(tab, l.Pair)
		if ma != mb {
			t.Fatalf("margin for %v differs across label order: %v vs %v", l.Pair, ma, mb)
		}
	}
	for _, risk := range []float64{0, 0.02, 0.1, MaxRisk} {
		if a.Band(risk) != b.Band(risk) {
			t.Fatalf("band at risk %v differs: %+v vs %+v", risk, a.Band(risk), b.Band(risk))
		}
	}
}

// Below the label floor — or with either class missing — the learner is
// returned non-ready (never an error) and still reports its counts.
func TestTrainFloors(t *testing.T) {
	tab, labels := routerFixture(20)

	few, err := Train(tab, labels[:6], Options{MinLabels: 24})
	if err != nil {
		t.Fatal(err)
	}
	if few.Ready() {
		t.Error("6 labels under a floor of 24 must not be ready")
	}
	if pos, neg := few.Labels(); pos != 3 || neg != 3 {
		t.Errorf("Labels() = %d, %d; want 3, 3", pos, neg)
	}

	var oneClass []Label
	for _, l := range labels {
		if l.Match {
			oneClass = append(oneClass, l)
		}
	}
	single, err := Train(tab, oneClass, Options{MinLabels: 8})
	if err != nil {
		t.Fatal(err)
	}
	if single.Ready() {
		t.Error("a single-class training set must not be ready")
	}

	if (&Learner{}).Ready() || (*Learner)(nil).Ready() {
		t.Error("zero and nil learners must report not ready")
	}
	if _, err := Train(nil, labels, Options{}); err == nil {
		t.Error("nil table must error")
	}
}

// The band always keeps Hi ≥ marginGap and a crowd band at least
// marginGap wide, routes margins on the correct side, and larger risk
// never raises the accept bar.
func TestBandDecideAndRiskMonotone(t *testing.T) {
	tab, labels := routerFixture(30)
	l, err := Train(tab, labels, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	prev := Band{Lo: math.Inf(-1), Hi: math.Inf(1)}
	for _, risk := range []float64{0, 0.01, 0.05, 0.1, MaxRisk, 1.5} {
		b := l.Band(risk)
		if b.Hi < marginGap {
			t.Fatalf("risk %v: band %+v violates the accept floor %v", risk, b, marginGap)
		}
		if b.Lo > b.Hi-marginGap {
			t.Fatalf("risk %v: band %+v narrower than the %v crowd-band floor", risk, b, marginGap)
		}
		if b.Hi > prev.Hi {
			t.Fatalf("risk %v raised the accept bar: %+v after %+v", risk, b, prev)
		}
		prev = b

		if got := b.Decide(b.Hi + 0.1); got != DecideMatch {
			t.Errorf("above Hi: Decide = %v; want DecideMatch", got)
		}
		if got := b.Decide(b.Lo - 0.1); got != DecideNonMatch {
			t.Errorf("below Lo: Decide = %v; want DecideNonMatch", got)
		}
		if got := b.Decide((b.Lo + b.Hi) / 2); got != DecideCrowd {
			t.Errorf("inside band: Decide = %v; want DecideCrowd", got)
		}
	}
}

// Confidence is the posterior recorded on machine verdicts: monotone in
// the margin, above 0.5 for machine-accepts, below for machine-rejects.
func TestConfidenceCalibration(t *testing.T) {
	b := Band{Lo: -1.2, Hi: 0.8}
	if c := b.Confidence(b.Hi + 0.01); c <= 0.5 {
		t.Errorf("accept confidence %v not above 0.5", c)
	}
	if c := b.Confidence(b.Lo - 0.01); c >= 0.5 {
		t.Errorf("reject confidence %v not below 0.5", c)
	}
	last := -1.0
	for m := -3.0; m <= 3.0; m += 0.25 {
		c := b.Confidence(m)
		if c <= last {
			t.Fatalf("confidence not strictly increasing at margin %v", m)
		}
		if c <= 0 || c >= 1 {
			t.Fatalf("confidence %v outside (0, 1)", c)
		}
		last = c
	}
	// A degenerate band saturates but stays finite and on the right side.
	if c := (Band{}).Confidence(0.1); !(c > 0.5 && c <= 1) || math.IsNaN(c) {
		t.Errorf("degenerate band confidence = %v", c)
	}
}

func TestAdaptRisk(t *testing.T) {
	cases := []struct {
		base, acc, want float64
	}{
		{0.02, 0, 0.02},  // no evidence: unchanged
		{0.02, 1, 0.02},  // perfect pool: unchanged
		{0.02, -1, 0.02}, // garbage in: unchanged
		{0.02, 0.9, 0.02 * 1.2},
		{0.02, 0.5, 0.02 * 2},
		{0.2, 0.5, MaxRisk}, // capped
	}
	for _, c := range cases {
		if got := AdaptRisk(c.base, c.acc); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("AdaptRisk(%v, %v) = %v; want %v", c.base, c.acc, got, c.want)
		}
	}
}

// A warm memo changes no bit: training repeatedly through one Features
// on overlapping label sets — some labels synthetic — yields learners
// bitwise equal to a cold Train in weights, bias, both margin lists and
// every pair's margin, and the memo never holds a synthetic pair.
func TestFeaturesWarmTrainEqualsCold(t *testing.T) {
	tab, labels := routerFixture(40)
	// Synthetic negatives: each family's duplicate against the next
	// family's camera, a pair no real label names.
	var synthetic []Label
	for i := 0; i+1 < 40; i++ {
		synthetic = append(synthetic, Label{Pair: record.MakePair(record.ID(3*i+1), record.ID(3*i+5)), Synthetic: true})
	}
	f := NewFeatures(tab)
	judged := map[record.Pair]bool{}
	for round, w := range [][2]int{{0, 40}, {20, 60}, {0, 80}, {10, 50}, {0, 80}} {
		set := append(slices.Clone(labels[w[0]:w[1]]), synthetic[w[0]/2:min(w[1]/2, len(synthetic))]...)
		for _, l := range labels[w[0]:w[1]] {
			judged[l.Pair] = true
		}
		opts := Options{Seed: int64(round)}
		warm, err := f.Train(set, opts)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := Train(tab, set, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !warm.Ready() || !cold.Ready() {
			t.Fatalf("round %d: fixture should train ready learners", round)
		}
		if !sameBits(warm.model.W, cold.model.W) || !sameBits([]float64{warm.model.B}, []float64{cold.model.B}) ||
			!sameBits(warm.posMargins, cold.posMargins) || !sameBits(warm.negMargins, cold.negMargins) {
			t.Fatalf("round %d: warm learner differs from a cold Train", round)
		}
		for _, l := range set {
			m := []float64{cold.Margin(tab, l.Pair), warm.Margin(tab, l.Pair)}
			if !l.Synthetic {
				m = append(m, f.Margin(warm, l.Pair))
			}
			if !sameBits(m[:1], m[1:2]) || !sameBits(m[:1], m[len(m)-1:]) {
				t.Fatalf("round %d: margins for %v differ: %v", round, l.Pair, m)
			}
		}
		if f.Len() != len(judged) {
			t.Fatalf("round %d: memo holds %d vectors; the real labels name %d pairs", round, f.Len(), len(judged))
		}
	}
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
