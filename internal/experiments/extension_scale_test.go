package experiments

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"github.com/crowder/crowder/internal/dataset"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/similarity"
	"github.com/crowder/crowder/internal/simjoin"
)

// tokenBlocking is cappedBlocking without a cap or a threshold: every
// pair of records sharing a token, in canonical order.
func tokenBlocking(t *record.Table) []record.Pair {
	return sortedBlocking(t, math.MaxInt, 0)
}

func sortedBlocking(t *record.Table, maxBlock int, tau float64) []record.Pair {
	pairs := cappedBlocking(t, maxBlock, tau)
	record.SortPairs(pairs)
	return pairs
}

func TestTokenBlockingBasics(t *testing.T) {
	tab := record.NewTable("name")
	tab.Append("apple ipad two 16gb") // 0
	tab.Append("apple ipad 2nd 16gb") // 1
	tab.Append("sony bravia tv")      // 2
	tab.Append("sony bravia lcd tv")  // 3
	tab.Append("zzz unrelated qqq")   // 4
	set := record.NewPairSet(tokenBlocking(tab)...)
	if !set.Has(0, 1) {
		t.Error("ipad pair should be a candidate")
	}
	if !set.Has(2, 3) {
		t.Error("sony pair should be a candidate")
	}
	if set.Has(0, 4) || set.Has(2, 4) || set.Has(0, 2) {
		t.Error("token-disjoint pairs should not be candidates")
	}
	if set.Len() != 2 {
		t.Errorf("got %d candidates; want 2", set.Len())
	}
}

// Without a cap token blocking yields exactly the token-sharing pairs:
// complete for Jaccard > 0 (every pair with non-zero similarity shares a
// token), nothing else, and each pair once.
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
	if got := tokenBlocking(d.Table); len(want) == 0 || !slices.Equal(got, want) {
		t.Fatalf("token blocking gave %d pairs; want the %d token-sharing pairs", len(got), len(want))
	}
}

// The table's postings are maintained as records arrive, so blocking a
// table grown batch by batch gives the same candidates as blocking the
// same rows appended at once, and each batch's candidates keep every
// pair the earlier batches produced.
func TestTokenBlockingAfterAppends(t *testing.T) {
	d := dataset.RestaurantN(7, 120, 25)
	full := tokenBlocking(d.Table)

	grown := record.NewTable(d.Table.Schema...)
	var prev []record.Pair
	for _, cut := range []int{40, 41, 90, d.Table.Len()} {
		for i := grown.Len(); i < cut; i++ {
			grown.Append(d.Table.Records[i].Values...)
		}
		cur := tokenBlocking(grown)
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
	all := tokenBlocking(tab)
	capped := sortedBlocking(tab, 2, 0)
	if want := []record.Pair{{A: 0, B: 1}}; !slices.Equal(capped, want) {
		t.Fatalf("capped blocking = %v; want only the rare block's %v", capped, want)
	}
	if len(all) != 6 {
		t.Fatalf("uncapped blocking gave %d pairs; want all 6", len(all))
	}
	// A block exactly at the cap is kept.
	if got := sortedBlocking(tab, 4, 0); !slices.Equal(got, all) {
		t.Fatalf("cap at the block size = %v; want %v", got, all)
	}
}

// Uncapped, blocking then Jaccard scoring finds exactly the similarity
// join's pairs: every pair at or above a positive threshold shares a
// token.
func TestCappedBlockingMatchesJoin(t *testing.T) {
	d := dataset.RestaurantN(5, 200, 25)
	for _, tau := range []float64{0.1, 0.2, 0.35, 0.5} {
		t.Run(fmt.Sprint(tau), func(t *testing.T) {
			want := simjoin.Pairs(simjoin.Join(d.Table, simjoin.Options{Threshold: tau}))
			record.SortPairs(want)
			got := sortedBlocking(d.Table, math.MaxInt, tau)
			if len(want) == 0 || !slices.Equal(got, want) {
				t.Fatalf("blocking kept %d pairs; the join found %d", len(got), len(want))
			}
		})
	}
}
