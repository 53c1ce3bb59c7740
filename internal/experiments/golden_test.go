package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./internal/experiments -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// checkGolden compares rendered experiment output against its checked-in
// snapshot byte for byte. The experiment drivers are deterministic in
// the environment seed, so any drift — dataset generation, join
// semantics, HIT generation, formatting — fails tier-1 here instead of
// silently changing the numbers `go run ./cmd/experiments` prints.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s (regenerate with -update if intended):\n--- want ---\n%s\n--- got ---\n%s", path, want, got)
	}
}

func TestGoldenTable2Restaurant(t *testing.T) {
	checkGolden(t, "table2_restaurant.golden", sharedEnv.Table2(sharedEnv.Restaurant).String())
}

func TestGoldenTable2Product(t *testing.T) {
	checkGolden(t, "table2_product.golden", sharedEnv.Table2(sharedEnv.Product).String())
}

func TestGoldenFigure10Restaurant(t *testing.T) {
	if testing.Short() {
		t.Skip("full generator replay; skipped in -short mode")
	}
	r, err := sharedEnv.Figure10(sharedEnv.Restaurant)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "figure10_restaurant.golden", r.String())
}
