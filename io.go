package crowder

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// CSVOptions configures ReadCSV.
type CSVOptions struct {
	// Header treats the first row as the schema. Without it, columns are
	// named col0, col1, ….
	Header bool
	// SourceColumn optionally names (with Header) or indexes (without) a
	// column holding an integer source tag for two-source integration;
	// the column is consumed, not stored as an attribute.
	SourceColumn string
	// Comma is the field delimiter (default ',').
	Comma rune
}

// ReadCSV loads records from CSV into a Table. Every row becomes one
// record; ragged rows are rejected. Rows are streamed into the table one
// at a time — the reader's row buffer is reused and each record's values
// are copied out — so loading an n-row catalog takes O(row) transient
// memory on top of the table itself, never a second full copy of the
// file.
func ReadCSV(r io.Reader, opts CSVOptions) (*Table, error) {
	cr := csv.NewReader(r)
	if opts.Comma != 0 {
		cr.Comma = opts.Comma
	}
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true

	first, err := cr.Read()
	if err == io.EOF {
		return nil, fmt.Errorf("crowder: empty csv input")
	}
	if err != nil {
		return nil, fmt.Errorf("crowder: reading csv: %w", err)
	}

	var schema []string
	if opts.Header {
		schema = append(schema, first...)
	} else {
		for i := range first {
			schema = append(schema, "col"+strconv.Itoa(i))
		}
	}

	srcIdx := -1
	if opts.SourceColumn != "" {
		if opts.Header {
			for i, name := range schema {
				if name != opts.SourceColumn {
					continue
				}
				if srcIdx >= 0 {
					// A duplicated header is ambiguous: silently taking the
					// first match would tag every record with attribute data.
					return nil, fmt.Errorf("crowder: source column %q appears %d times in header %v", opts.SourceColumn, count(schema, opts.SourceColumn), schema)
				}
				srcIdx = i
			}
			if srcIdx < 0 {
				return nil, fmt.Errorf("crowder: source column %q not in header %v", opts.SourceColumn, schema)
			}
		} else {
			idx, err := strconv.Atoi(opts.SourceColumn)
			if err != nil || idx < 0 || idx >= len(schema) {
				return nil, fmt.Errorf("crowder: source column %q is not a valid index", opts.SourceColumn)
			}
			srcIdx = idx
		}
		schema = append(schema[:srcIdx:srcIdx], schema[srcIdx+1:]...)
	}

	t := NewTable(schema...)
	appendRow := func(rowNum int, row []string) error {
		if len(row) != len(schema)+btoi(srcIdx >= 0) {
			return fmt.Errorf("crowder: row %d has %d fields; want %d", rowNum, len(row), len(schema)+btoi(srcIdx >= 0))
		}
		if srcIdx >= 0 {
			src, err := strconv.Atoi(row[srcIdx])
			if err != nil || src < 0 {
				return fmt.Errorf("crowder: row %d: source %q is not a non-negative integer", rowNum, row[srcIdx])
			}
			vals := append(append([]string(nil), row[:srcIdx]...), row[srcIdx+1:]...)
			t.AppendFrom(src, vals...)
		} else {
			t.Append(row...)
		}
		return nil
	}

	rowNum := 1
	if !opts.Header {
		if err := appendRow(rowNum, first); err != nil {
			return nil, err
		}
	}
	for {
		rowNum++
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("crowder: reading csv: %w", err)
		}
		if err := appendRow(rowNum, row); err != nil {
			return nil, err
		}
	}
	if t.Len() == 0 {
		return nil, fmt.Errorf("crowder: csv has a header but no data rows")
	}
	return t, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

func count(ss []string, s string) int {
	n := 0
	for _, v := range ss {
		if v == s {
			n++
		}
	}
	return n
}

// WriteMatchesCSV writes the matches as "a,b,confidence" rows, with a
// header, for downstream consumption. Confidence is written with the
// shortest decimal form that round-trips the exact float64, so exporting
// and re-importing matches loses nothing (4-decimal rounding used to
// collapse nearby posteriors into ties).
func WriteMatchesCSV(w io.Writer, matches []Match) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"record_a", "record_b", "confidence"}); err != nil {
		return err
	}
	for _, m := range matches {
		err := cw.Write([]string{
			strconv.Itoa(m.Pair.A),
			strconv.Itoa(m.Pair.B),
			strconv.FormatFloat(m.Confidence, 'g', -1, 64),
		})
		if err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Entities groups the accepted matches (confidence ≥ 0.5) into entity
// clusters: the connected components of the match relation, each sorted,
// singletons omitted. This is the final deliverable of an ER pipeline —
// "these records are the same thing".
func (r *Result) Entities() [][]int {
	parent := make(map[int]int)
	var find func(int) int
	find = func(x int) int {
		p, ok := parent[x]
		if !ok {
			parent[x] = x
			return x
		}
		if p != x {
			parent[x] = find(p)
		}
		return parent[x]
	}
	for _, m := range r.Accepted() {
		ra, rb := find(m.Pair.A), find(m.Pair.B)
		if ra != rb {
			parent[ra] = rb
		}
	}
	groups := make(map[int][]int)
	for x := range parent {
		root := find(x)
		groups[root] = append(groups[root], x)
	}
	var out [][]int
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		sort.Ints(g)
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
