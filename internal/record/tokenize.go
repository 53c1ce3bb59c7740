package record

import (
	"slices"
	"strings"
)

// Normalize applies the paper's preprocessing (Section 7.1): letters are
// lowercased and every non-alphanumeric character is replaced with a space.
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z' || r >= '0' && r <= '9':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r - 'A' + 'a')
		default:
			b.WriteByte(' ')
		}
	}
	return b.String()
}

// Tokenize splits a normalized string into whitespace-delimited tokens.
// Together with Normalize it defines a value's tokens; the table's token
// cache reproduces it byte by byte without the intermediate strings.
func Tokenize(s string) []string {
	return strings.Fields(Normalize(s))
}

// TokenSet is a set of distinct tokens.
type TokenSet map[string]struct{}

// NewTokenSet builds a set from the given tokens.
func NewTokenSet(tokens ...string) TokenSet {
	s := make(TokenSet, len(tokens))
	for _, t := range tokens {
		s[t] = struct{}{}
	}
	return s
}

// Add inserts a token.
func (s TokenSet) Add(tok string) { s[tok] = struct{}{} }

// Has reports membership.
func (s TokenSet) Has(tok string) bool {
	_, ok := s[tok]
	return ok
}

// Len returns the set cardinality.
func (s TokenSet) Len() int { return len(s) }

// Sorted returns the tokens in lexicographic order.
func (s TokenSet) Sorted() []string {
	out := make([]string, 0, len(s))
	for t := range s {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

// IntersectionSize returns |s ∩ o|.
func (s TokenSet) IntersectionSize(o TokenSet) int {
	small, large := s, o
	if len(large) < len(small) {
		small, large = large, small
	}
	n := 0
	for t := range small {
		if large.Has(t) {
			n++
		}
	}
	return n
}

// UnionSize returns |s ∪ o|.
func (s TokenSet) UnionSize(o TokenSet) int {
	return len(s) + len(o) - s.IntersectionSize(o)
}

// RecordTokens returns the token set of a record: the union of tokens from
// all attribute values (Section 7.1: "a token set for each record, which
// consisted of the tokens from all attribute values").
func RecordTokens(r *Record) TokenSet {
	s := make(TokenSet)
	for _, v := range r.Values {
		for _, t := range Tokenize(v) {
			s.Add(t)
		}
	}
	return s
}

// AttrTokens returns the token set of a single attribute value.
func AttrTokens(r *Record, attr int) TokenSet {
	s := make(TokenSet)
	for _, t := range Tokenize(r.Attr(attr)) {
		s.Add(t)
	}
	return s
}
