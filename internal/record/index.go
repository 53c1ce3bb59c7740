package record

// Postings returns the table's live full inverted index: postings[tok]
// lists, in ascending order, the IDs of every record whose token set
// contains tok. Valid token IDs are [0, len(postings)) = the token
// universe at call time.
//
// Like TokenIDs, the index is maintained incrementally and cached on the
// table: the first call builds it for every record, and each later call
// only inserts the records appended since. Appending records therefore
// costs O(tokens of the new records), not a rebuild. The returned slices must not be mutated; they may be extended in place by a
// later call, so callers needing a stable snapshot must copy. Safe for
// concurrent callers as long as the table is not mutated concurrently.
func (t *Table) Postings() [][]int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ensureTokenIDs(1)
	for len(t.postings) < t.interner.Len() {
		t.postings = append(t.postings, nil)
	}
	for i := t.posted; i < len(t.Records); i++ {
		for _, tok := range t.tokenIDs[i] {
			t.postings[tok] = append(t.postings[tok], int32(i))
		}
	}
	t.posted = len(t.Records)
	return t.postings[:t.interner.Len():t.interner.Len()]
}

// PairUniverse counts the candidate-pair universe of the table: all
// distinct pairs n·(n−1)/2, or — with crossOnly and a multi-source table —
// only the pairs whose records come from different sources, i.e. the sum
// of cross-source products Σ_{s<t} c_s·c_t = (n² − Σ c_s²)/2 over the
// actual source tag values. This is correct for any number of sources and
// any tag values (the tags need not be {0, 1}).
func (t *Table) PairUniverse(crossOnly bool) int {
	n := len(t.Records)
	if !crossOnly || len(t.Source) == 0 {
		return n * (n - 1) / 2
	}
	counts := map[int]int{}
	for _, s := range t.Source {
		counts[s]++
	}
	sumSq := 0
	for _, c := range counts {
		sumSq += c * c
	}
	return (n*n - sumSq) / 2
}
