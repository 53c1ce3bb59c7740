package record

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestInternerDenseIDs(t *testing.T) {
	in := NewInterner()
	a := in.Intern("apple")
	b := in.Intern("ipad")
	if a != 0 || b != 1 {
		t.Fatalf("IDs not dense from 0: %d, %d", a, b)
	}
	if got := in.Intern("apple"); got != a {
		t.Errorf("re-interning changed the ID: %d vs %d", got, a)
	}
	if in.Len() != 2 {
		t.Errorf("Len = %d; want 2", in.Len())
	}
	if in.Token(a) != "apple" || in.Token(b) != "ipad" {
		t.Error("Token does not invert Intern")
	}
	if id, ok := in.Lookup("ipad"); !ok || id != b {
		t.Errorf("Lookup(ipad) = %d, %v", id, ok)
	}
	if _, ok := in.Lookup("absent"); ok {
		t.Error("Lookup of an unseen token should fail")
	}
}

// Under a full, a one-bit and a constant hash, the empty token and a
// 300-byte token intern and look up like any other, and a token that is
// absent stays absent even when its hash matches interned tokens'.
func TestInternerEdgeTokensAndCollisions(t *testing.T) {
	long := strings.Repeat("x", 300)
	toks := []string{"", long, long[:299], "a", long + "y", "b"}
	absent := []string{"c", "aa", long[:298], long + "x", strings.Repeat("y", 300)}
	for _, mask := range []uint32{math.MaxUint32, 1, 0} {
		t.Run(fmt.Sprintf("mask=%#x", mask), func(t *testing.T) {
			narrowHash(t, mask)
			in := NewInterner()
			for i, tok := range toks {
				if id := in.Intern(tok); id != int32(i) {
					t.Errorf("Intern(%.10q…) = %d; want %d", tok, id, i)
				}
			}
			for _, tok := range absent {
				if id, ok := in.Lookup(tok); ok {
					t.Errorf("Lookup of absent %.10q… (len %d) = %d, true", tok, len(tok), id)
				}
			}
			for i, tok := range toks {
				if id := in.Intern(tok); id != int32(i) {
					t.Errorf("re-Intern(%.10q…) = %d; want %d", tok, id, i)
				}
				if id, ok := in.Lookup(tok); !ok || id != int32(i) {
					t.Errorf("Lookup(%.10q…) = %d, %v; want %d", tok, id, ok, i)
				}
				if got := in.Token(int32(i)); got != tok {
					t.Errorf("Token(%d) = %.10q… (len %d); want len %d", i, got, len(got), len(tok))
				}
			}
			if in.Len() != len(toks) {
				t.Errorf("Len = %d; want %d", in.Len(), len(toks))
			}
		})
	}
}

func TestTableTokenIDsCached(t *testing.T) {
	tab := NewTable("name")
	tab.Append("iPad Two 16GB WiFi White")
	tab.Append("iPad 2nd generation 16GB WiFi White")

	ids := tab.TokenIDs()
	if len(ids) != 2 {
		t.Fatalf("TokenIDs covers %d records; want 2", len(ids))
	}
	again := tab.TokenIDs()
	for i := range ids {
		if len(again[i]) != len(ids[i]) {
			t.Fatal("second call disagrees with first")
		}
		// Cached: the same backing arrays are returned, not rebuilt.
		if len(ids[i]) > 0 && &again[i][0] != &ids[i][0] {
			t.Fatal("TokenIDs re-tokenized instead of reading the cache")
		}
	}

	// The ID sets must agree with the token cache's definition.
	toks, want := referenceCache([][]string{tab.Records[0].Values, tab.Records[1].Values})
	assertCache(t, "cached", tab, toks, want)
}

func TestTableTokenIDsExtendsAfterAppend(t *testing.T) {
	tab := NewTable("name")
	tab.Append("apple ipad")
	first := tab.TokenIDs()
	if len(first) != 1 {
		t.Fatal("expected one record")
	}
	tab.Append("apple iphone")
	second := tab.TokenIDs()
	if len(second) != 2 {
		t.Fatalf("cache did not extend: %d records", len(second))
	}
	// Previously returned slice is still valid and unchanged.
	if len(first) != 1 || len(first[0]) != 2 {
		t.Error("earlier snapshot corrupted by append")
	}
	if tab.TokenUniverse() != 3 { // apple, ipad, iphone
		t.Errorf("TokenUniverse = %d; want 3", tab.TokenUniverse())
	}
}

func TestTableTokenIDsConcurrentReaders(t *testing.T) {
	tab := NewTable("name")
	for i := 0; i < 50; i++ {
		tab.Append("apple ipad wifi", "16gb white")
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids := tab.TokenIDs()
			if len(ids) != 50 {
				t.Errorf("TokenIDs covers %d records; want 50", len(ids))
			}
		}()
	}
	wg.Wait()
}
