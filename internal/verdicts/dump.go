package verdicts

import (
	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/record"
)

// Dump serializes the cache: deep copies of every entry in canonical
// pair order, plus every partial-answer fragment flattened in canonical
// pair order (fragment order preserved within a pair). Dump and
// RestoreCache are the persistence layer's snapshot format — dumping the
// cache wholesale, rather than replaying the mutations that built it,
// is what makes a restored cache bit-identical regardless of the
// order of windows the live session happened to apply.
func (c *Cache) Dump() (entries []Entry, partials []aggregate.Answer) {
	entries = make([]Entry, 0, len(c.entries))
	for e := range c.Entries() {
		entries = append(entries, copyEntry(e))
	}

	pairs := make([]record.Pair, 0, len(c.partial))
	for p := range c.partial {
		pairs = append(pairs, p)
	}
	record.SortPairs(pairs)
	for _, p := range pairs {
		partials = append(partials, c.partial[p]...)
	}
	return entries, partials
}

// copyEntry deep-copies an entry so the dump shares no mutable state
// with the live cache.
func copyEntry(e *Entry) Entry {
	out := *e
	if e.Answers != nil {
		out.Answers = append([]aggregate.Answer(nil), e.Answers...)
	}
	if e.Deduction != nil {
		d := *e.Deduction
		if d.Path != nil {
			d.Path = append([]record.Pair(nil), d.Path...)
		}
		out.Deduction = &d
	}
	return out
}

// RestoreCache rebuilds a cache from a Dump. The result is unbound;
// callers bind the session aggregator afterwards.
func RestoreCache(entries []Entry, partials []aggregate.Answer) *Cache {
	c := NewCache()
	for i := range entries {
		e := copyEntry(&entries[i])
		c.insert(&e)
	}
	for _, a := range partials {
		c.partial[a.Pair] = append(c.partial[a.Pair], a)
	}
	return c
}
