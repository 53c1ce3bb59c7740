package record

import (
	"slices"
	"strconv"
	"testing"
	"testing/quick"
)

func TestTableAppendAndGet(t *testing.T) {
	tab := NewTable("name", "price")
	id1 := tab.Append("iPad Two 16GB WiFi White", "$490")
	id2 := tab.Append("iPad 2nd generation 16GB WiFi White", "$469")

	if id1 != 0 || id2 != 1 {
		t.Fatalf("IDs = %d, %d; want 0, 1", id1, id2)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d; want 2", tab.Len())
	}
	r := tab.Get(id2)
	if r == nil || r.Attr(1) != "$469" {
		t.Fatalf("Get(%d) = %v; want price $469", id2, r)
	}
	if tab.Get(-1) != nil || tab.Get(99) != nil {
		t.Fatal("Get out of range should return nil")
	}
}

func TestTableAppendFrom(t *testing.T) {
	tab := NewTable("name")
	tab.AppendFrom(0, "abt record")
	tab.AppendFrom(1, "buy record")
	tab.AppendFrom(1, "another buy record")
	if len(tab.Source) != 3 {
		t.Fatalf("len(Source) = %d; want 3", len(tab.Source))
	}
	want := []int{0, 1, 1}
	for i, w := range want {
		if tab.Source[i] != w {
			t.Errorf("Source[%d] = %d; want %d", i, tab.Source[i], w)
		}
	}
}

func TestTableAppendFromAfterAppend(t *testing.T) {
	tab := NewTable("name")
	tab.Append("plain")
	tab.AppendFrom(2, "sourced")
	if len(tab.Source) != 2 || tab.Source[0] != 0 || tab.Source[1] != 2 {
		t.Fatalf("Source = %v; want [0 2]", tab.Source)
	}
}

// An untagged record appended after a tagged one keeps Source as long
// as Records (tagged 0), so CrossOK can index it.
func TestTableAppendAfterAppendFrom(t *testing.T) {
	tab := NewTable("name")
	tab.AppendFrom(0, "a")
	tab.AppendFrom(1, "b")
	tab.Append("c")
	if len(tab.Source) != 3 || tab.Source[2] != 0 {
		t.Fatalf("Source = %v; want [0 1 0]", tab.Source)
	}
	if tab.CrossOK(true, 0, 2) || !tab.CrossOK(true, 1, 2) {
		t.Error("CrossOK does not read the untagged record as source 0")
	}
}

func TestRecordAttrOutOfRange(t *testing.T) {
	r := Record{ID: 0, Values: []string{"a"}}
	if r.Attr(1) != "" || r.Attr(-1) != "" {
		t.Error("Attr out of range should return empty string")
	}
	if r.Attr(0) != "a" {
		t.Error("Attr(0) should return the value")
	}
}

func TestMakePairCanonical(t *testing.T) {
	p := MakePair(5, 2)
	if p.A != 2 || p.B != 5 {
		t.Fatalf("MakePair(5,2) = %v; want (2,5)", p)
	}
	if MakePair(2, 5) != p {
		t.Fatal("MakePair should be order-insensitive")
	}
}

func TestPairContains(t *testing.T) {
	p := MakePair(1, 4)
	if !p.Contains(1) || !p.Contains(4) || p.Contains(2) {
		t.Fatal("Contains gave wrong answer")
	}
}

func TestPairSetBasics(t *testing.T) {
	s := NewPairSet()
	s.Add(1, 2)
	s.Add(2, 1) // duplicate under canonicalization
	s.Add(3, 3) // self-pair ignored
	s.Add(4, 5)
	if s.Len() != 2 {
		t.Fatalf("Len = %d; want 2", s.Len())
	}
	if !s.Has(2, 1) || !s.Has(4, 5) || s.Has(1, 3) {
		t.Fatal("Has gave wrong answers")
	}
	got := s.Slice()
	want := []Pair{{1, 2}, {4, 5}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Slice = %v; want %v", got, want)
		}
	}
}

func TestSortPairs(t *testing.T) {
	ps := []Pair{{3, 4}, {1, 9}, {1, 2}, {0, 7}}
	SortPairs(ps)
	want := []Pair{{0, 7}, {1, 2}, {1, 9}, {3, 4}}
	for i := range want {
		if ps[i] != want[i] {
			t.Fatalf("SortPairs = %v; want %v", ps, want)
		}
	}
}

func TestNormalize(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Apple iPad2 16GB, WiFi White", "apple ipad2 16gb  wifi white"},
		{"55 e. 54th st.", "55 e  54th st "},
		{"ABC", "abc"},
		{"", ""},
		{"---", "   "},
		{"Déjà", "d j "}, // non-ASCII letters are treated as separators
	}
	for _, c := range cases {
		if got := Normalize(c.in); got != c.want {
			t.Errorf("Normalize(%q) = %q; want %q", c.in, got, c.want)
		}
	}
}

func TestTokenize(t *testing.T) {
	got := Tokenize("Apple iPod shuffle 2GB Blue!")
	want := []string{"apple", "ipod", "shuffle", "2gb", "blue"}
	if len(got) != len(want) {
		t.Fatalf("Tokenize = %v; want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Tokenize = %v; want %v", got, want)
		}
	}
}

func TestRecordTokensPaperExample(t *testing.T) {
	// r1 from Table 1 of the paper: the Jaccard computation in Section 2.1.1
	// uses the Product Name tokens {iPad, Two, 16GB, WiFi, White}.
	tab := NewTable("product_name", "price")
	id := tab.Append("iPad Two 16GB WiFi White", "$490")
	toks := Tokenize(tab.Get(id).Attr(0))
	slices.Sort(toks)
	if want := []string{"16gb", "ipad", "two", "white", "wifi"}; !slices.Equal(toks, want) {
		t.Fatalf("Product Name tokens = %v; want %v", toks, want)
	}
	// The record's token set also folds in the price tokens.
	var all []string
	for _, tid := range tab.TokenIDs()[id] {
		all = append(all, tab.interner.Token(tid))
	}
	if !slices.Contains(all, "490") || len(all) != 6 {
		t.Errorf("record tokens = %v; want the five name tokens and 490", all)
	}
}

// Property: MakePair always yields A <= B and is order-insensitive.
func TestMakePairProperty(t *testing.T) {
	f := func(a, b int16) bool {
		p := MakePair(ID(a), ID(b))
		q := MakePair(ID(b), ID(a))
		return p == q && p.A <= p.B
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Normalize output contains only [a-z0-9 ] and is idempotent.
func TestNormalizeProperty(t *testing.T) {
	f := func(s string) bool {
		n := Normalize(s)
		for _, r := range n {
			ok := r == ' ' || (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9')
			if !ok {
				return false
			}
		}
		return Normalize(n) == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPairUniverse(t *testing.T) {
	tab := NewTable("name")
	tab.Append("a")
	tab.Append("b")
	tab.Append("c")
	if got := tab.PairUniverse(false); got != 3 {
		t.Errorf("all-pairs universe = %d; want 3", got)
	}
	// Single-source tables ignore crossOnly.
	if got := tab.PairUniverse(true); got != 3 {
		t.Errorf("crossOnly without sources = %d; want 3", got)
	}

	multi := NewTable("name")
	// Tags deliberately not {0, 1}: counts {4: 2, 9: 3, 11: 1}.
	for _, src := range []int{4, 9, 4, 9, 9, 11} {
		multi.AppendFrom(src, "x")
	}
	// Cross products: 2·3 + 2·1 + 3·1 = 11.
	if got := multi.PairUniverse(true); got != 11 {
		t.Errorf("cross universe = %d; want 11", got)
	}
	if got := multi.PairUniverse(false); got != 15 {
		t.Errorf("all-pairs universe = %d; want 15", got)
	}
}

// PairUniverse counts an untagged record appended after tagged ones
// as source 0, as CrossOK judges its pairs.
func TestPairUniverseMixedAppend(t *testing.T) {
	tab := NewTable("name")
	tab.AppendFrom(0, "a")
	tab.AppendFrom(1, "b")
	tab.Append("c")
	// Sources {0: 2, 1: 1}: the cross pairs are (a,b) and (b,c).
	if got := tab.PairUniverse(true); got != 2 {
		t.Errorf("cross universe = %d; want 2", got)
	}
}

func TestPostingsIncremental(t *testing.T) {
	tab := NewTable("name")
	tab.Append("alpha beta")
	tab.Append("beta gamma")
	posts := tab.Postings()
	if len(posts) != tab.TokenUniverse() {
		t.Fatalf("postings cover %d tokens; universe %d", len(posts), tab.TokenUniverse())
	}
	beta, ok := tab.interner.Lookup("beta")
	if !ok {
		t.Fatal("beta not interned")
	}
	if got := posts[beta]; len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("postings[beta] = %v", got)
	}
	// Appending extends the live index without rebuilding.
	tab.Append("beta delta")
	posts = tab.Postings()
	if got := posts[beta]; len(got) != 3 || got[2] != 2 {
		t.Fatalf("postings[beta] after append = %v", got)
	}
	delta, _ := tab.interner.Lookup("delta")
	if got := posts[delta]; len(got) != 1 || got[0] != 2 {
		t.Fatalf("postings[delta] = %v", got)
	}
}

// Append carves records' values from shared chunks. Each record's Values
// has its own capacity, so appending to one never writes into the next,
// and the caller's slice is copied, not kept.
func TestTableAppendValuesIndependent(t *testing.T) {
	tab := NewTable("a", "b")
	row := []string{"", "x"}
	for i := 0; i < 300; i++ {
		row[0] = strconv.Itoa(i)
		tab.Append(row...)
	}
	row[0] = "changed"
	for i := range tab.Records {
		vs := tab.Records[i].Values
		if cap(vs) != len(vs) {
			t.Fatalf("record %d: values capacity %d beyond its %d values", i, cap(vs), len(vs))
		}
		_ = append(vs, "intruder")
	}
	for i, r := range tab.Records {
		if want := []string{strconv.Itoa(i), "x"}; !slices.Equal(r.Values, want) {
			t.Fatalf("record %d: values %q; want %q", i, r.Values, want)
		}
	}
	if id := tab.Append(); len(tab.Records[id].Values) != 0 {
		t.Fatalf("an empty row has values %q", tab.Records[id].Values)
	}
}

// Appending 10 000 rows allocates per chunk of values, not per row.
func TestTableAppendAllocations(t *testing.T) {
	rows := make([][]string, 10000)
	for i := range rows {
		rows[i] = []string{strconv.Itoa(i), "name", "city"}
	}
	allocs := testing.AllocsPerRun(5, func() {
		tab := NewTable("id", "name", "city")
		for _, r := range rows {
			tab.Append(r...)
		}
	})
	if allocs > 64 {
		t.Fatalf("appending %d rows made %.0f allocations; want at most 64", len(rows), allocs)
	}
}
