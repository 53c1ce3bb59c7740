package blocking

import (
	"slices"
	"testing"

	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/similarity"
)

func smallTable() *record.Table {
	t := record.NewTable("name")
	t.Append("apple ipad two 16gb") // 0
	t.Append("apple ipad 2nd 16gb") // 1
	t.Append("sony bravia tv")      // 2
	t.Append("sony bravia lcd tv")  // 3
	t.Append("zzz unrelated qqq")   // 4
	return t
}

func TestTokenBlockingBasics(t *testing.T) {
	tab := smallTable()
	pairs := TokenBlocking(tab, Options{})
	set := record.NewPairSet(pairs...)
	if !set.Has(0, 1) {
		t.Error("ipad pair should be a candidate")
	}
	if !set.Has(2, 3) {
		t.Error("sony pair should be a candidate")
	}
	if set.Has(0, 4) || set.Has(2, 4) {
		t.Error("token-disjoint pairs should not be candidates")
	}
	// records 0..3 all share tokens pairwise via "apple"/"sony"? No:
	// (0,2) share nothing → excluded.
	if set.Has(0, 2) {
		t.Error("(0,2) share no token")
	}
}

// Without a cap token blocking yields exactly the token-sharing pairs in
// canonical order: complete for Jaccard > 0 (every pair with non-zero
// similarity shares a token), and nothing else.
func TestTokenBlockingCompleteness(t *testing.T) {
	d := dataset.RestaurantN(3, 120, 15)
	ids := d.Table.TokenIDs()
	var want []record.Pair
	for i := range ids {
		for j := i + 1; j < len(ids); j++ {
			if similarity.Jaccard(ids[i], ids[j]) > 0 {
				want = append(want, record.MakePair(record.ID(i), record.ID(j)))
			}
		}
	}
	if got := TokenBlocking(d.Table, Options{}); len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("token blocking gave %d pairs; want the %d token-sharing pairs", len(got), len(want))
	}
}

// The table's postings are maintained as records arrive, so blocking a
// table grown batch by batch gives the same candidates as blocking the
// same rows appended at once, and each batch's candidates keep every
// pair the earlier batches produced.
func TestTokenBlockingAfterAppends(t *testing.T) {
	d := dataset.RestaurantN(7, 120, 25)
	full := TokenBlocking(d.Table, Options{})

	grown := record.NewTable(d.Table.Schema...)
	var prev []record.Pair
	for _, cut := range []int{40, 41, 90, d.Table.Len()} {
		for i := grown.Len(); i < cut; i++ {
			grown.Append(d.Table.Records[i].Values...)
		}
		cur := TokenBlocking(grown, Options{})
		set := record.NewPairSet(cur...)
		for _, p := range prev {
			if !set.Has(p.A, p.B) {
				t.Fatalf("pair %v lost after growing the table to %d records", p, cut)
			}
		}
		prev = cur
	}
	if !slices.Equal(prev, full) {
		t.Fatalf("grown table blocks to %d pairs; appended at once %d", len(prev), len(full))
	}
}

func TestTokenBlockingMaxBlock(t *testing.T) {
	tab := record.NewTable("name")
	// "common" appears in every record; "rare" in two.
	tab.Append("common rare a")
	tab.Append("common rare b")
	tab.Append("common c")
	tab.Append("common d")
	all := TokenBlocking(tab, Options{})
	capped := TokenBlocking(tab, Options{MaxBlock: 2})
	if len(capped) >= len(all) {
		t.Fatalf("MaxBlock should reduce candidates: %d vs %d", len(capped), len(all))
	}
	set := record.NewPairSet(capped...)
	if !set.Has(0, 1) {
		t.Error("rare block should survive the cap")
	}
	if set.Has(2, 3) {
		t.Error("pairs only sharing the capped stop token should be dropped")
	}
}

// CrossSourceOnly works for arbitrary source tags and more than two
// sources: only pairs whose tags differ survive.
func TestCrossSourceOnly(t *testing.T) {
	tab := record.NewTable("name")
	tab.AppendFrom(5, "alpha beta")
	tab.AppendFrom(5, "alpha beta gamma")
	tab.AppendFrom(8, "alpha delta")
	tab.AppendFrom(2, "epsilon zeta delta")
	// "alpha" links 0, 1 and 2 and "delta" links 2 and 3; (0,1) is
	// same-source.
	want := []record.Pair{{A: 0, B: 2}, {A: 1, B: 2}, {A: 2, B: 3}}
	if got := TokenBlocking(tab, Options{CrossSourceOnly: true}); !slices.Equal(got, want) {
		t.Fatalf("cross-source blocking = %v; want %v", got, want)
	}
	if all := TokenBlocking(tab, Options{}); len(all) != len(want)+1 {
		t.Fatalf("unrestricted blocking = %v; want the cross pairs plus (0,1)", all)
	}
}

func BenchmarkTokenBlockingRestaurant(b *testing.B) {
	d := dataset.Restaurant(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TokenBlocking(d.Table, Options{MaxBlock: 200})
	}
}
