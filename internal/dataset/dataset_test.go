package dataset

import (
	"strings"
	"testing"

	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/similarity"
	"github.com/crowder/crowder/internal/simjoin"
)

func TestPaperTable1(t *testing.T) {
	d := PaperTable1()
	if d.Table.Len() != 9 {
		t.Fatalf("Table 1 has %d records; want 9", d.Table.Len())
	}
	// Figure 2(c): four matching pairs.
	if d.Matches.Len() != 4 {
		t.Fatalf("Table 1 ground truth has %d pairs; want 4", d.Matches.Len())
	}
	if !d.Matches.Has(0, 1) || !d.Matches.Has(0, 6) || !d.Matches.Has(1, 6) || !d.Matches.Has(2, 3) {
		t.Fatal("Table 1 ground truth missing expected pairs")
	}
	if d.NumPairs() != 36 {
		t.Fatalf("NumPairs = %d; want 36", d.NumPairs())
	}
}

func TestRestaurantScale(t *testing.T) {
	d := Restaurant(1)
	if d.Table.Len() != 858 {
		t.Fatalf("Restaurant has %d records; want 858", d.Table.Len())
	}
	if d.Matches.Len() != 106 {
		t.Fatalf("Restaurant has %d matching pairs; want 106", d.Matches.Len())
	}
	if d.NumPairs() != 858*857/2 {
		t.Fatalf("NumPairs = %d; want %d", d.NumPairs(), 858*857/2)
	}
	if len(d.Table.Schema) != 4 {
		t.Fatalf("schema = %v; want 4 attributes", d.Table.Schema)
	}
}

func TestRestaurantDeterministic(t *testing.T) {
	a, b := Restaurant(7), Restaurant(7)
	for i := 0; i < a.Table.Len(); i++ {
		ra, rb := a.Table.Get(record.ID(i)), b.Table.Get(record.ID(i))
		for j := range ra.Values {
			if ra.Values[j] != rb.Values[j] {
				t.Fatal("same seed produced different records")
			}
		}
	}
	c := Restaurant(8)
	diff := false
	for i := 0; i < a.Table.Len() && !diff; i++ {
		if a.Table.Get(record.ID(i)).Values[0] != c.Table.Get(record.ID(i)).Values[0] {
			diff = true
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical datasets")
	}
}

func TestRestaurantTable2aShape(t *testing.T) {
	// The synthetic dataset must reproduce the qualitative profile of
	// Table 2(a): recall already high at threshold 0.4 and complete by
	// 0.2, with candidate counts growing by orders of magnitude as the
	// threshold drops.
	d := Restaurant(1)
	all := simjoin.Join(d.Table, simjoin.Options{Threshold: 0.1})
	recallAt := func(tau float64) (int, float64) {
		kept := simjoin.FilterThreshold(all, tau)
		m := 0
		for _, sp := range kept {
			if d.Matches.Has(sp.Pair.A, sp.Pair.B) {
				m++
			}
		}
		return len(kept), float64(m) / float64(d.Matches.Len())
	}
	n5, r5 := recallAt(0.5)
	n3, r3 := recallAt(0.3)
	n2, r2 := recallAt(0.2)
	n1, r1 := recallAt(0.1)
	if r5 < 0.6 || r5 > 0.99 {
		t.Errorf("recall@0.5 = %.2f; want the Table 2(a) regime (0.6–0.99)", r5)
	}
	if r3 < 0.95 {
		t.Errorf("recall@0.3 = %.2f; want >= 0.95", r3)
	}
	if r2 < 0.999 || r1 < 0.999 {
		t.Errorf("recall@0.2 = %.2f, recall@0.1 = %.2f; want 1.0", r2, r1)
	}
	if !(n5 < n3 && n3 < n2 && n2 < n1) {
		t.Errorf("candidate counts not monotone: %d, %d, %d, %d", n5, n3, n2, n1)
	}
	if n1 < 20*n3 {
		t.Errorf("candidates should explode at low thresholds: n(0.1)=%d vs n(0.3)=%d", n1, n3)
	}
}

func TestProductScale(t *testing.T) {
	d := Product(1)
	if d.Table.Len() != 1081+1092 {
		t.Fatalf("Product has %d records; want %d", d.Table.Len(), 1081+1092)
	}
	abt, buy := 0, 0
	for _, s := range d.Table.Source {
		if s == 0 {
			abt++
		} else {
			buy++
		}
	}
	if abt != 1081 || buy != 1092 {
		t.Fatalf("sources = %d abt, %d buy; want 1081, 1092", abt, buy)
	}
	if d.Matches.Len() != 1097 {
		t.Fatalf("Product has %d matching pairs; want 1097", d.Matches.Len())
	}
	if d.NumPairs() != 1081*1092 {
		t.Fatalf("NumPairs = %d; want %d", d.NumPairs(), 1081*1092)
	}
}

func TestProductMatchesAreCrossSource(t *testing.T) {
	d := Product(1)
	for p := range d.Matches {
		if d.Table.Source[p.A] == d.Table.Source[p.B] {
			t.Fatalf("match %v is same-source", p)
		}
	}
}

func TestProductTable2bShape(t *testing.T) {
	// Table 2(b)'s profile: machine similarity is weak on Product — recall
	// well below 50% at threshold 0.5, and still meaningfully incomplete
	// at 0.3.
	d := Product(1)
	all := simjoin.Join(d.Table, simjoin.Options{Threshold: 0.1, CrossSourceOnly: true})
	recallAt := func(tau float64) float64 {
		kept := simjoin.FilterThreshold(all, tau)
		m := 0
		for _, sp := range kept {
			if d.Matches.Has(sp.Pair.A, sp.Pair.B) {
				m++
			}
		}
		return float64(m) / float64(d.Matches.Len())
	}
	if r := recallAt(0.5); r > 0.5 {
		t.Errorf("recall@0.5 = %.2f; Product must be hard (< 0.5)", r)
	}
	if r := recallAt(0.4); r < 0.3 || r > 0.8 {
		t.Errorf("recall@0.4 = %.2f; want mid-range", r)
	}
	if r := recallAt(0.2); r < 0.85 {
		t.Errorf("recall@0.2 = %.2f; want >= 0.85 (paper: 92.2%%)", r)
	}
	if r := recallAt(0.1); r < 0.97 {
		t.Errorf("recall@0.1 = %.2f; want >= 0.97 (paper: 99.4%%)", r)
	}
}

func TestProductHarderThanRestaurant(t *testing.T) {
	// The core contrast driving Section 7.3: at the same threshold,
	// machine similarity separates Restaurant matches far better than
	// Product matches.
	rest, prod := Restaurant(1), Product(1)
	recall := func(d *Dataset, cross bool) float64 {
		kept := simjoin.Join(d.Table, simjoin.Options{Threshold: 0.5, CrossSourceOnly: cross})
		m := 0
		for _, sp := range kept {
			if d.Matches.Has(sp.Pair.A, sp.Pair.B) {
				m++
			}
		}
		return float64(m) / float64(d.Matches.Len())
	}
	if rr, pr := recall(rest, false), recall(prod, true); rr <= pr {
		t.Errorf("Restaurant recall (%.2f) should exceed Product recall (%.2f)", rr, pr)
	}
}

func TestProductDupConstruction(t *testing.T) {
	prod := Product(1)
	d := ProductDup(2, prod)
	n := d.Table.Len()
	if n < 100 || n > 100+9*100 {
		t.Fatalf("Product+Dup has %d records; want 100 base + up to 900 dups", n)
	}
	// Paper scale: 157,641 total pairs → 562 records; with a different RNG
	// the count varies but must stay in the same regime (E[n] = 550).
	if n < 400 || n > 700 {
		t.Errorf("Product+Dup has %d records; expected ≈ 550", n)
	}
	// Matching pairs: E ≈ 1650 (Σ x(x+1)/2 for x ~ U[0,9] over 100 bases).
	if m := d.Matches.Len(); m < 900 || m > 2600 {
		t.Errorf("Product+Dup has %d matching pairs; expected ≈ 1700 (paper: 1713)", m)
	}
}

func TestProductDupSwappedTokensStaySimilar(t *testing.T) {
	// Token swapping preserves the token SET, so every dup pair built from
	// single swaps of the same base should have Jaccard 1 on the name —
	// making Product+Dup rich in easy matches (the point of Section 7.4:
	// "more matching pairs than the datasets used in the previous
	// experiments").
	prod := Product(1)
	d := ProductDup(2, prod)
	found := 0
	ids := d.Table.TokenIDs()
	for p := range d.Matches {
		if similarity.Jaccard(ids[p.A], ids[p.B]) >= 0.9 {
			found++
		}
	}
	if found < d.Matches.Len()/2 {
		t.Errorf("only %d/%d Product+Dup matches are near-identical; expected most", found, d.Matches.Len())
	}
}

func TestSwapTwoTokens(t *testing.T) {
	got := swapTwoTokens("single", nil)
	if got != "single" {
		t.Errorf("single token should be unchanged; got %q", got)
	}
}

func TestProductDupMoreMatchDensity(t *testing.T) {
	// Section 7.4's motivation: Product+Dup has a much higher ratio of
	// matching pairs to total pairs than Product.
	prod := Product(1)
	dup := ProductDup(2, prod)
	prodDensity := float64(prod.Matches.Len()) / float64(prod.NumPairs())
	dupDensity := float64(dup.Matches.Len()) / float64(dup.NumPairs())
	if dupDensity < 5*prodDensity {
		t.Errorf("dup density %.5f should dwarf product density %.5f", dupDensity, prodDensity)
	}
}

func TestStatsString(t *testing.T) {
	d := PaperTable1()
	s := d.Stats()
	if !strings.Contains(s, "9 records") || !strings.Contains(s, "4 matching") {
		t.Errorf("Stats = %q", s)
	}
}

func TestRestaurantNScaling(t *testing.T) {
	d := RestaurantN(3, 200, 30)
	if d.Table.Len() != 200 || d.Matches.Len() != 30 {
		t.Fatalf("RestaurantN produced %d records, %d matches", d.Table.Len(), d.Matches.Len())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("infeasible dup count should panic")
		}
	}()
	RestaurantN(3, 10, 6)
}

func TestProductNScaling(t *testing.T) {
	d := ProductN(3, 300, 310, 250)
	if d.Matches.Len() != 250 {
		t.Fatalf("ProductN produced %d matches; want 250", d.Matches.Len())
	}
	abt, buy := 0, 0
	for _, s := range d.Table.Source {
		if s == 0 {
			abt++
		} else {
			buy++
		}
	}
	if abt != 300 || buy != 310 {
		t.Fatalf("ProductN sources = %d, %d; want 300, 310", abt, buy)
	}
}
