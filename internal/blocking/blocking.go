// Package blocking implements token blocking, the candidate-generation
// indexing the paper points to in footnote 1 ("we can adopt some indexing
// techniques such as blocking and Q-gram based indexing [7] to avoid
// all-pairs comparison"): records sharing at least one token are
// candidates. It is complete for any Jaccard threshold > 0 (a pair with
// no shared token has similarity 0), so it pairs safely with the machine
// pass, and a MaxBlock cap drops blocks bigger than the cap (stop tokens
// like "the" or a ubiquitous brand), trading a little recall for a large
// candidate reduction.
//
// The resolver's machine pass is the similarity join (internal/simjoin);
// capped token blocking is the baseline of the Section 9 scaling study
// (internal/experiments).
package blocking

import "github.com/crowder/crowder/internal/record"

// Options configures candidate generation.
type Options struct {
	// MaxBlock drops blocks with more than this many records (0 = no cap).
	MaxBlock int
	// CrossSourceOnly keeps only pairs spanning different sources.
	CrossSourceOnly bool
}

// TokenBlocking returns all pairs of records sharing at least one token,
// in canonical order. Blocks are read from the table's live inverted index
// (record.Table.Postings), so the blocking index is a flat slice rather
// than a string-keyed map and records are never re-tokenized.
func TokenBlocking(t *record.Table, opts Options) []record.Pair {
	out := record.NewPairSet()
	for _, ids := range t.Postings() {
		if opts.MaxBlock > 0 && len(ids) > opts.MaxBlock {
			continue
		}
		for j := 1; j < len(ids); j++ {
			for i := 0; i < j; i++ {
				a, b := record.ID(ids[i]), record.ID(ids[j])
				if t.CrossOK(opts.CrossSourceOnly, a, b) {
					out.Add(a, b)
				}
			}
		}
	}
	return out.Slice()
}
