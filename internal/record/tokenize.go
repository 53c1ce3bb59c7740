package record

import "strings"

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
