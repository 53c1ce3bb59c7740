package crowder

import (
	"strconv"
	"strings"
	"testing"
)

func TestReadCSVWithHeader(t *testing.T) {
	in := "name,price\niPad 2 16GB,$490\niPhone 4 16GB,$520\n"
	tab, err := ReadCSV(strings.NewReader(in), CSVOptions{Header: true})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d; want 2", tab.Len())
	}
	if got := tab.Record(0); got[0] != "iPad 2 16GB" || got[1] != "$490" {
		t.Errorf("Record(0) = %v", got)
	}
}

func TestReadCSVNoHeader(t *testing.T) {
	in := "a,b\nc,d\n"
	tab, err := ReadCSV(strings.NewReader(in), CSVOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d; want 2", tab.Len())
	}
}

func TestReadCSVSourceColumnByName(t *testing.T) {
	in := "name,src\nabt item,0\nbuy item,1\n"
	tab, err := ReadCSV(strings.NewReader(in), CSVOptions{Header: true, SourceColumn: "src"})
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Record(0); len(got) != 1 || got[0] != "abt item" {
		t.Errorf("Record(0) = %v; source column should be consumed", got)
	}
	// Verify the sources landed by running a cross-source machine join.
	res, err := Resolve(tab, Options{Threshold: 0, CrossSourceOnly: true, MachineOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalPairs != 1 {
		t.Errorf("TotalPairs = %d; want 1 cross-source pair", res.TotalPairs)
	}
}

func TestReadCSVSourceColumnByIndex(t *testing.T) {
	in := "0,first\n1,second\n"
	tab, err := ReadCSV(strings.NewReader(in), CSVOptions{SourceColumn: "0"})
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Record(1); len(got) != 1 || got[0] != "second" {
		t.Errorf("Record(1) = %v", got)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		opts CSVOptions
	}{
		{"empty", "", CSVOptions{}},
		{"header only", "a,b\n", CSVOptions{Header: true}},
		{"ragged", "a,b\nc\n", CSVOptions{Header: true}},
		{"missing source col", "a,b\nc,d\n", CSVOptions{Header: true, SourceColumn: "zzz"}},
		{"bad source index", "a,b\n", CSVOptions{SourceColumn: "9"}},
		{"non-integer source", "name,src\nx,notanint\n", CSVOptions{Header: true, SourceColumn: "src"}},
		{"negative source", "name,src\nx,-1\n", CSVOptions{Header: true, SourceColumn: "src"}},
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c.in), c.opts); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

// A header that names the source column more than once is ambiguous —
// silently consuming the first match used to keep the duplicate's data
// as an attribute. The reader must reject it, and say why.
func TestReadCSVDuplicateSourceColumn(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		opts    CSVOptions
		wantErr string
	}{
		{
			name:    "duplicated source column",
			in:      "src,name,src\n0,a,1\n",
			opts:    CSVOptions{Header: true, SourceColumn: "src"},
			wantErr: `source column "src" appears 2 times`,
		},
		{
			name:    "triplicated source column",
			in:      "s,s,s\n0,1,2\n",
			opts:    CSVOptions{Header: true, SourceColumn: "s"},
			wantErr: `source column "s" appears 3 times`,
		},
		{
			name: "duplicate header but unique source column",
			in:   "name,name,src\na,b,0\n",
			opts: CSVOptions{Header: true, SourceColumn: "src"},
		},
		{
			name: "duplicate header without source column",
			in:   "name,name\na,b\n",
			opts: CSVOptions{Header: true},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ReadCSV(strings.NewReader(c.in), c.opts)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected error containing %q, got nil", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not contain %q", err, c.wantErr)
			}
		})
	}
}

func TestReadCSVCustomComma(t *testing.T) {
	in := "a;b\nc;d\n"
	tab, err := ReadCSV(strings.NewReader(in), CSVOptions{Comma: ';'})
	if err != nil {
		t.Fatal(err)
	}
	if got := tab.Record(0); got[1] != "b" {
		t.Errorf("Record(0) = %v", got)
	}
}

func TestWriteMatchesCSV(t *testing.T) {
	var sb strings.Builder
	err := WriteMatchesCSV(&sb, []Match{
		{Pair: Pair{1, 2}, Confidence: 0.93},
		{Pair: Pair{3, 4}, Confidence: 0.51},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "record_a,record_b,confidence") {
		t.Error("missing header")
	}
	if !strings.Contains(out, "1,2,0.93\n") {
		t.Errorf("missing row: %q", out)
	}
}

// Confidence values must survive an export/import cycle exactly: the
// old fixed 4-decimal format collapsed nearby posteriors (and mangled
// tiny ones to 0.0000).
func TestWriteMatchesCSVRoundTrip(t *testing.T) {
	confs := []float64{
		1.0 / 3.0,
		0.93000049999,  // would collide with 0.9300 at 4 decimals
		0.930004999949, // distinct from the one above
		1e-9,           // would round to 0.0000
		0.5,
		1,
	}
	matches := make([]Match, len(confs))
	for i, c := range confs {
		matches[i] = Match{Pair: Pair{A: i, B: i + 100}, Confidence: c}
	}
	var sb strings.Builder
	if err := WriteMatchesCSV(&sb, matches); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != len(matches)+1 {
		t.Fatalf("got %d lines; want %d", len(lines), len(matches)+1)
	}
	for i, c := range confs {
		fields := strings.Split(lines[i+1], ",")
		if len(fields) != 3 {
			t.Fatalf("row %d: %q", i, lines[i+1])
		}
		got, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			t.Fatalf("row %d: parsing %q: %v", i, fields[2], err)
		}
		if got != c {
			t.Errorf("row %d: confidence %v round-tripped to %v", i, c, got)
		}
	}
}

func TestEntities(t *testing.T) {
	res := &Result{Matches: []Match{
		{Pair: Pair{0, 1}, Confidence: 0.9},
		{Pair: Pair{1, 6}, Confidence: 0.8}, // transitively joins {0,1,6}
		{Pair: Pair{2, 3}, Confidence: 0.7},
		{Pair: Pair{4, 5}, Confidence: 0.2}, // below threshold: ignored
	}}
	ents := res.Entities()
	if len(ents) != 2 {
		t.Fatalf("got %d entities; want 2: %v", len(ents), ents)
	}
	if len(ents[0]) != 3 || ents[0][0] != 0 || ents[0][1] != 1 || ents[0][2] != 6 {
		t.Errorf("first entity = %v; want [0 1 6]", ents[0])
	}
	if len(ents[1]) != 2 || ents[1][0] != 2 {
		t.Errorf("second entity = %v; want [2 3]", ents[1])
	}
}

func TestEntitiesEmpty(t *testing.T) {
	res := &Result{}
	if ents := res.Entities(); len(ents) != 0 {
		t.Errorf("Entities = %v; want none", ents)
	}
}

func TestEntitiesEndToEnd(t *testing.T) {
	tab, oracle := paperTable()
	res, err := Resolve(tab, Options{
		Threshold:         0.3,
		ClusterSize:       4,
		Oracle:            oracle,
		QualificationTest: true,
		Seed:              1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ents := res.Entities()
	// The iPad trio {0, 1, 6} must appear as (part of) one entity.
	found := false
	for _, e := range ents {
		has := map[int]bool{}
		for _, r := range e {
			has[r] = true
		}
		if has[0] && has[1] && has[6] {
			found = true
		}
	}
	if !found {
		t.Errorf("iPad trio not clustered: %v", ents)
	}
}
