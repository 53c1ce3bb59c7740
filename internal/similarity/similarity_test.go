package similarity

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"github.com/crowder/crowder/internal/record"
)

// sets interns two token slices through a shared interner, returning the
// sorted ID-set representation the set-similarity functions operate on.
func sets(xs, ys []string) ([]int32, []int32) {
	in := record.NewInterner()
	idSet := func(tokens []string) []int32 {
		var out []int32
		for _, tok := range tokens {
			out = append(out, in.Intern(tok))
		}
		slices.Sort(out)
		return slices.Compact(out)
	}
	return idSet(xs), idSet(ys)
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestJaccardPaperExample(t *testing.T) {
	// Section 2.1.1: J(r1, r2) over Product Names.
	r1, r2 := sets(
		[]string{"ipad", "two", "16gb", "wifi", "white"},
		[]string{"ipad", "2nd", "generation", "16gb", "wifi", "white"},
	)
	got := Jaccard(r1, r2)
	want := 4.0 / 7.0 // the paper rounds to 0.57
	if !almostEq(got, want) {
		t.Fatalf("J(r1,r2) = %v; want %v", got, want)
	}
	if got < 0.5 {
		t.Fatal("paper says J(r1,r2) >= 0.5, so the pair matches at threshold 0.5")
	}
}

func TestJaccardPaperNonMatch(t *testing.T) {
	// Section 2.1.1: J(r1, r3) = 0.25 < 0.5.
	r1, r3 := sets(
		[]string{"ipad", "two", "16gb", "wifi", "white"},
		[]string{"iphone", "4th", "generation", "white", "16gb"},
	)
	got := Jaccard(r1, r3)
	if !almostEq(got, 0.25) {
		t.Fatalf("J(r1,r3) = %v; want 0.25", got)
	}
}

func TestJaccardEdgeCases(t *testing.T) {
	if got := Jaccard(nil, nil); got != 1 {
		t.Errorf("J(∅,∅) = %v; want 1", got)
	}
	a, empty := sets([]string{"a"}, nil)
	if got := Jaccard(a, empty); got != 0 {
		t.Errorf("J({a},∅) = %v; want 0", got)
	}
	x, y := sets([]string{"a", "b"}, []string{"a", "b"})
	if got := Jaccard(x, y); got != 1 {
		t.Errorf("J(X,X) = %v; want 1", got)
	}
}

func TestIntersectSize(t *testing.T) {
	a, b := sets([]string{"a", "b", "c", "e"}, []string{"b", "c", "d"})
	if got := IntersectSize(a, b); got != 2 {
		t.Errorf("IntersectSize = %d; want 2", got)
	}
	if got := IntersectSize(a, nil); got != 0 {
		t.Errorf("IntersectSize(X,∅) = %d; want 0", got)
	}
}

func TestCosineTF(t *testing.T) {
	a := NewTF([]string{"x", "x", "y"})
	b := NewTF([]string{"x", "y", "y"})
	// dot = 2*1 + 1*2 = 4; |a| = sqrt(5); |b| = sqrt(5).
	if got := CosineTF(a, b); !almostEq(got, 4.0/5.0) {
		t.Errorf("CosineTF = %v; want 0.8", got)
	}
	if CosineTF(TF{}, TF{}) != 1 {
		t.Error("CosineTF(∅,∅) should be 1")
	}
	if CosineTF(NewTF([]string{"a"}), TF{}) != 0 {
		t.Error("CosineTF(X,∅) should be 0")
	}
}

func TestCosineStrings(t *testing.T) {
	if got := CosineStrings("Apple iPad", "apple ipad"); !almostEq(got, 1) {
		t.Errorf("CosineStrings(same after normalize) = %v; want 1", got)
	}
	if got := CosineStrings("alpha", "beta"); got != 0 {
		t.Errorf("CosineStrings(disjoint) = %v; want 0", got)
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"", "abc", 3},
		{"abc", "", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"abc", "abc", 0},
		{"ab", "ba", 2},
		{"oceana", "oceania", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d; want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestLevenshteinSim(t *testing.T) {
	if got := LevenshteinSim("", ""); got != 1 {
		t.Errorf("LevenshteinSim(∅,∅) = %v; want 1", got)
	}
	if got := LevenshteinSim("abcd", "abcd"); got != 1 {
		t.Errorf("identical = %v; want 1", got)
	}
	if got := LevenshteinSim("abcd", "wxyz"); got != 0 {
		t.Errorf("totally different = %v; want 0", got)
	}
	if got := LevenshteinSim("kitten", "sitting"); !almostEq(got, 1-3.0/7.0) {
		t.Errorf("kitten/sitting = %v; want %v", got, 1-3.0/7.0)
	}
}

// Property: each set similarity is bounded to [0, 1], symmetric, and 1
// on identical sets.
func TestSetSimilarityProperties(t *testing.T) {
	fns := []struct {
		name string
		fn   func(a, b []int32) float64
	}{
		{"Jaccard", Jaccard},
	}
	for _, sf := range fns {
		t.Run(sf.name, func(t *testing.T) {
			f := func(xs, ys []string) bool {
				a, b := sets(xs, ys)
				v := sf.fn(a, b)
				if v < 0 || v > 1 {
					return false
				}
				return almostEq(v, sf.fn(b, a)) && almostEq(sf.fn(a, a), 1)
			}
			if err := quick.Check(f, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

// Property: the merge intersection agrees with a hash-set intersection
// over the token strings.
func TestIntersectAgreesWithTokenSet(t *testing.T) {
	f := func(xs, ys []string) bool {
		a, b := sets(xs, ys)
		in := map[string]bool{}
		for _, x := range xs {
			in[x] = true
		}
		want := 0
		for _, y := range ys {
			if in[y] {
				want++
				in[y] = false
			}
		}
		return IntersectSize(a, b) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Levenshtein is a metric — symmetric, zero iff equal, and
// satisfies the triangle inequality.
func TestLevenshteinMetricProperty(t *testing.T) {
	f := func(a, b, c string) bool {
		dab := Levenshtein(a, b)
		dba := Levenshtein(b, a)
		if dab != dba {
			return false
		}
		if (dab == 0) != (a == b) {
			// Equal strings after rune conversion; byte-identical implies 0.
			if a == b && dab != 0 {
				return false
			}
			if dab == 0 && a != b {
				return false
			}
		}
		dac := Levenshtein(a, c)
		dcb := Levenshtein(c, b)
		return dab <= dac+dcb
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: Levenshtein bounded by max length; at least |len(a)-len(b)|.
func TestLevenshteinBoundsProperty(t *testing.T) {
	f := func(a, b string) bool {
		ra, rb := []rune(a), []rune(b)
		d := Levenshtein(a, b)
		diff := len(ra) - len(rb)
		if diff < 0 {
			diff = -diff
		}
		max := len(ra)
		if len(rb) > max {
			max = len(rb)
		}
		return d >= diff && d <= max
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkJaccard(b *testing.B) {
	x, y := sets(
		[]string{"apple", "ipad2", "16gb", "wifi", "white", "tablet", "2011"},
		[]string{"ipad", "2nd", "generation", "16gb", "wifi", "white"},
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Jaccard(x, y)
	}
}

func BenchmarkLevenshtein(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Levenshtein("apple ipad2 16gb wifi white", "ipad 2nd generation 16gb wifi white")
	}
}
