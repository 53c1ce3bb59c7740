// Package record defines the core data model for entity resolution:
// records with named attributes, tables of records, token normalization,
// and record pairs.
//
// The model follows Section 2 of the CrowdER paper: each record is a row
// with string attributes (e.g. [name, address, city, type] for the
// Restaurant dataset); machine-based techniques operate on the token set
// derived from all attribute values after normalization (lowercasing and
// replacing non-alphanumeric characters with spaces, per Section 7.1).
// Normalize and Tokenize are the definition of that token set. A Table's
// token cache (TokenIDs, TokenUniverse, Postings) does not call them: it
// fills itself with a single-pass byte-level scanner that yields the same
// sets and the same first-seen token IDs (see ensureTokenIDs). The IDs
// come from an Interner partitioned by token hash, each partition's
// bytes in one arena found through a flat open-addressing table, so it
// holds no pointer per token and a bulk fill interns partition by
// partition, in cache.
package record

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
)

// ID identifies a record within a Table. IDs are dense, starting at 0.
type ID int

// Record is a single row: an ID plus attribute values positionally aligned
// with the owning Table's schema.
type Record struct {
	ID     ID
	Values []string
}

// Attr returns the value of the attribute at position i, or "" if the
// record has no such attribute.
func (r *Record) Attr(i int) string {
	if i < 0 || i >= len(r.Values) {
		return ""
	}
	return r.Values[i]
}

// String renders the record in the "[v1, v2, ...]" form used by the paper.
func (r *Record) String() string {
	return fmt.Sprintf("r%d[%s]", r.ID, strings.Join(r.Values, ", "))
}

// Table is a collection of records sharing a schema.
type Table struct {
	// Schema names the attributes, e.g. ["name", "address", "city", "type"].
	Schema  []string
	Records []Record

	// Source optionally tags each record with the data source it came from
	// (used by integrated datasets such as Product = abt ∪ buy). Empty when
	// the table has a single source. When non-empty, len(Source) equals
	// len(Records) and Source[i] is the source index of Records[i]; a
	// record appended without a tag counts as source 0.
	Source []int

	// Token cache (see TokenIDs): every record is tokenized and interned at
	// most once. mu guards lazy construction so concurrent readers are safe;
	// mutating the table itself concurrently with reads is not. postings is
	// the live full inverted index (see Postings); posted counts the records
	// already inserted into it.
	// values is the chunk Append carves records' Values from.
	values []string

	mu       sync.Mutex
	interner *Interner
	tokenIDs [][]int32
	postings [][]int32
	posted   int
}

// NewTable creates an empty table with the given schema.
func NewTable(schema ...string) *Table {
	return &Table{Schema: schema}
}

// Append adds a record with the given attribute values and returns its ID.
// In a multi-source table the record is tagged source 0.
func (t *Table) Append(values ...string) ID {
	id := ID(len(t.Records))
	if cap(t.values)-len(t.values) < len(values) {
		t.values = make([]string, 0, max(min(2*cap(t.values), valueChunk), 64, len(values)))
	}
	// Capped capacity: appending to one record's values never writes
	// into the next record's.
	lo := len(t.values)
	t.values = append(t.values, values...)
	t.Records = append(t.Records, Record{ID: id, Values: t.values[lo:len(t.values):len(t.values)]})
	if len(t.Source) > 0 {
		t.Source = append(t.Source, 0)
	}
	return id
}

// AppendFrom adds a record tagged with a source index (for integrated
// two-source tables such as Product). The first tagged record turns the
// table multi-source: the records before it are tagged source 0.
func (t *Table) AppendFrom(source int, values ...string) ID {
	id := t.Append(values...)
	for len(t.Source) < len(t.Records) {
		t.Source = append(t.Source, 0)
	}
	t.Source[id] = source
	return id
}

// valueChunk bounds how many values Append allocates at a time; a
// table's chunks double up to it.
const valueChunk = 4096

// Len returns the number of records.
func (t *Table) Len() int { return len(t.Records) }

// Get returns the record with the given ID, or nil if out of range.
func (t *Table) Get(id ID) *Record {
	if int(id) < 0 || int(id) >= len(t.Records) {
		return nil
	}
	return &t.Records[id]
}

// CrossOK reports whether the pair (a, b) is admissible under an optional
// cross-source-only restriction: always true when the restriction is off
// or the table is single-source, otherwise true iff the records come from
// different sources.
func (t *Table) CrossOK(crossOnly bool, a, b ID) bool {
	if !crossOnly || len(t.Source) == 0 {
		return true
	}
	return t.Source[a] != t.Source[b]
}

// Pair is an unordered pair of record IDs with A < B canonically.
type Pair struct {
	A, B ID
}

// MakePair returns the canonical (ordered) form of the pair {a, b}.
func MakePair(a, b ID) Pair {
	if a > b {
		a, b = b, a
	}
	return Pair{A: a, B: b}
}

// Contains reports whether id is one of the pair's endpoints.
func (p Pair) Contains(id ID) bool { return p.A == id || p.B == id }

func (p Pair) String() string { return fmt.Sprintf("(r%d,r%d)", p.A, p.B) }

// PairSet is a set of canonical pairs.
type PairSet map[Pair]struct{}

// NewPairSet builds a set from the given pairs, canonicalizing each.
func NewPairSet(pairs ...Pair) PairSet {
	s := make(PairSet, len(pairs))
	for _, p := range pairs {
		s.Add(p.A, p.B)
	}
	return s
}

// Add inserts the canonical pair {a, b}. Self-pairs are ignored.
func (s PairSet) Add(a, b ID) {
	if a == b {
		return
	}
	s[MakePair(a, b)] = struct{}{}
}

// Has reports whether the canonical pair {a, b} is present.
func (s PairSet) Has(a, b ID) bool {
	_, ok := s[MakePair(a, b)]
	return ok
}

// Len returns the number of pairs.
func (s PairSet) Len() int { return len(s) }

// Slice returns the pairs in deterministic (sorted) order.
func (s PairSet) Slice() []Pair {
	out := make([]Pair, 0, len(s))
	for p := range s {
		out = append(out, p)
	}
	SortPairs(out)
	return out
}

// ComparePairs is the canonical pair order: by A, then B.
func ComparePairs(a, b Pair) int {
	if c := cmp.Compare(a.A, b.A); c != 0 {
		return c
	}
	return cmp.Compare(a.B, b.B)
}

// SortPairs orders pairs by (A, B) ascending, in place.
func SortPairs(ps []Pair) { slices.SortFunc(ps, ComparePairs) }
