package hitgen

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"github.com/crowder/crowder/internal/record"
)

// bruteCover is the reference cover of one HIT: every input pair with
// both endpoints in the HIT, scanned in input order.
func bruteCover(pairs []record.Pair, h ClusterHIT) []record.Pair {
	in := make(map[record.ID]bool, len(h.Records))
	for _, r := range h.Records {
		in[r] = true
	}
	var out []record.Pair
	for _, p := range pairs {
		if in[p.A] && in[p.B] {
			out = append(out, p)
		}
	}
	return out
}

// bruteCheck is the reference Definition 1 check, with Covers' messages:
// HITs in order for size and duplicates, then the first uncovered pair in
// input order and the number of uncovered input pairs.
func bruteCheck(pairs []record.Pair, hits []ClusterHIT, k int) error {
	for i, h := range hits {
		if h.Size() > k {
			return fmt.Errorf("hitgen: HIT %d has %d records, exceeds k=%d", i, h.Size(), k)
		}
		for j, r := range h.Records {
			if slices.Contains(h.Records[:j], r) {
				return fmt.Errorf("hitgen: HIT %d contains duplicate record %d", i, r)
			}
		}
	}
	var first *record.Pair
	n := 0
	for i, p := range pairs {
		covered := false
		for _, h := range hits {
			if slices.Contains(h.Records, p.A) && slices.Contains(h.Records, p.B) {
				covered = true
				break
			}
		}
		if !covered {
			if first == nil {
				first = &pairs[i]
			}
			n++
		}
	}
	if first != nil {
		return fmt.Errorf("hitgen: pair %v not covered by any HIT (%d uncovered)", record.MakePair(first.A, first.B), n)
	}
	return nil
}

// checkCovers compares Covers with the brute-force references: the same
// verdict, the same message, and on success every HIT's cover equal to
// bruteCover, order included.
func checkCovers(t *testing.T, label string, pairs []record.Pair, hits []ClusterHIT, k int) {
	t.Helper()
	got, slots, err := Covers(pairs, hits, k)
	want := bruteCheck(pairs, hits, k)
	if (err == nil) != (want == nil) || (err != nil && err.Error() != want.Error()) {
		t.Fatalf("%s: Covers error %v; brute force %v", label, err, want)
	}
	if err != nil {
		if got != nil || slots != nil {
			t.Fatalf("%s: Covers returned covers alongside %v", label, err)
		}
		return
	}
	if len(got) != len(hits) {
		t.Fatalf("%s: %d covers for %d HITs", label, len(got), len(hits))
	}
	for i, h := range hits {
		if w := bruteCover(pairs, h); !slices.Equal(got[i], w) {
			t.Fatalf("%s: HIT %d %v covers %v; brute force %v", label, i, h.Records, got[i], w)
		}
		if len(slots[i]) != len(got[i]) || !slices.IsSorted(slots[i]) {
			t.Fatalf("%s: HIT %d slots %v for cover %v", label, i, slots[i], got[i])
		}
		for j, s := range slots[i] {
			if pairs[s] != got[i][j] {
				t.Fatalf("%s: HIT %d slot %d is pair %v, cover has %v", label, i, s, pairs[s], got[i][j])
			}
		}
	}
}

// Property: on seeded random pair sets — shuffled, with reversed and
// repeated pairs mixed in — every generator's HITs get exactly the
// brute-force covers, in input order.
func TestCoversMatchesBruteForce(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		pairs := randomPairs(rng, n, rng.Intn(90))
		for i := 0; i < len(pairs)/8; i++ {
			p := pairs[rng.Intn(len(pairs))]
			pairs = append(pairs, p, record.Pair{A: p.B, B: p.A})
		}
		rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
		k := 2 + rng.Intn(9)
		for _, gen := range allGenerators() {
			hits, err := gen.Generate(pairs, k)
			if err != nil {
				t.Fatalf("%s seed %d: %v", gen.Name(), seed, err)
			}
			checkCovers(t, fmt.Sprintf("%s seed %d k=%d", gen.Name(), seed, k), pairs, hits, k)
		}
	}
}

// Section 3.2: H1={r1,r2,r3,r7}, H2={r3,r4,r5,r6}, H3={r4,r7,r8,r9}
// cover all ten pairs, and dropping any one of them breaks coverage.
func TestCoversPaperOptimal(t *testing.T) {
	hits := []ClusterHIT{
		{Records: []record.ID{1, 2, 3, 7}},
		{Records: []record.ID{3, 4, 5, 6}},
		{Records: []record.ID{4, 7, 8, 9}},
	}
	covers, _, err := Covers(paperPairs(), hits, 4)
	if err != nil {
		t.Fatalf("the paper's optimal 3-HIT solution must cover all pairs: %v", err)
	}
	mk := record.MakePair
	want := [][]record.Pair{
		{mk(1, 2), mk(1, 7), mk(2, 7), mk(2, 3)},
		{mk(3, 4), mk(4, 5), mk(4, 6), mk(5, 6)},
		{mk(4, 7), mk(8, 9)},
	}
	for i := range want {
		if !slices.Equal(covers[i], want[i]) {
			t.Errorf("H%d covers %v; want %v", i+1, covers[i], want[i])
		}
	}
	for i := range hits {
		partial := slices.Delete(slices.Clone(hits), i, i+1)
		if _, _, err := Covers(paperPairs(), partial, 4); err == nil {
			t.Errorf("dropping H%d should break coverage", i+1)
		}
	}
}

// Hand-built inputs at the edges of Definition 1: a self-pair, a HIT with
// a record no pair mentions, empty HITs and pairs, and the three rejects.
func TestCoversEdgeCases(t *testing.T) {
	for _, tc := range []struct {
		name  string
		pairs []record.Pair
		hits  []ClusterHIT
		k     int
	}{
		{"empty", nil, nil, 2},
		{"empty HIT", []record.Pair{{A: 1, B: 2}}, []ClusterHIT{{}, {Records: []record.ID{2, 1}}}, 2},
		{"self-pair", []record.Pair{{A: 3, B: 3}, {A: 3, B: 4}}, []ClusterHIT{{Records: []record.ID{4, 3}}}, 2},
		{"unmentioned record", []record.Pair{{A: 1, B: 2}}, []ClusterHIT{{Records: []record.ID{9, 1, 2}}, {Records: []record.ID{9}}}, 3},
		{"oversized", []record.Pair{{A: 1, B: 2}}, []ClusterHIT{{Records: []record.ID{1, 2, 3}}}, 2},
		{"duplicate record", []record.Pair{{A: 1, B: 2}}, []ClusterHIT{{Records: []record.ID{1, 2, 1}}}, 4},
		{"duplicate unmentioned record", []record.Pair{{A: 1, B: 2}}, []ClusterHIT{{Records: []record.ID{1, 2}}, {Records: []record.ID{7, 7}}}, 4},
		{"uncovered pair", []record.Pair{{A: 1, B: 2}, {A: 2, B: 3}}, []ClusterHIT{{Records: []record.ID{1, 2}}}, 4},
	} {
		checkCovers(t, tc.name, tc.pairs, tc.hits, tc.k)
	}
}

// FuzzCovers decodes random pairs over a few records and random HIT
// groupings of those records, then checks Covers against the
// brute-force references. Byte 0 is k, byte 1 the pair count; each pair
// takes two bytes; every later byte adds a record to the current HIT,
// starting a new HIT when its high bit is set. The seed corpus is under
// testdata/fuzz/FuzzCovers.
func FuzzCovers(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		const records = 12
		k := int(data[0] % 8)
		rest := data[2:]
		var pairs []record.Pair
		for i := 0; i < int(data[1]%32) && len(rest) >= 2; i++ {
			pairs = append(pairs, record.Pair{A: record.ID(rest[0] % records), B: record.ID(rest[1] % records)})
			rest = rest[2:]
		}
		var hits []ClusterHIT
		for _, b := range rest {
			if b&0x80 != 0 || len(hits) == 0 {
				hits = append(hits, ClusterHIT{})
			}
			h := &hits[len(hits)-1]
			h.Records = append(h.Records, record.ID((b&0x7f)%records))
		}
		checkCovers(t, fmt.Sprintf("%v", data), pairs, hits, k)
	})
}
