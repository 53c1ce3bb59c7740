package store

import "testing"

// TestEventVocabulary pins every event's wire tag and durability class.
// Tags are append-only wire format; durability decides which records are
// fsynced before Log returns (everything that represents paid work or
// the session's identity) versus buffered (state reconstructible from a
// replay that ends one sweep earlier).
func TestEventVocabulary(t *testing.T) {
	cases := []struct {
		ev      Event
		tag     byte
		durable bool
	}{
		{&Meta{}, tagMeta, true},
		{&Append{}, tagAppend, true},
		{&Prune{}, tagPrune, false},
		{&Commit{}, tagCommit, true},
		{&QueuePosted{}, tagQueuePosted, false},
		{&QueueClaimed{}, tagQueueClaimed, false},
		{&QueueAnswered{}, tagQueueAnswered, true},
		{&QueueExpired{}, tagQueueExpired, false},
		{&QueueRetracted{}, tagQueueRetracted, false},
		{&Pending{}, tagPending, true},
		{&CacheState{}, tagCacheState, true},
		{&QueueState{}, tagQueueState, true},
		{&Windows{}, tagWindows, true},
	}
	seen := map[byte]bool{}
	for _, c := range cases {
		if got := c.ev.tag(); got != c.tag {
			t.Errorf("%T tag = %d; want %d", c.ev, got, c.tag)
		}
		if got := c.ev.durable(); got != c.durable {
			t.Errorf("%T durable = %v; want %v", c.ev, got, c.durable)
		}
		if seen[c.tag] {
			t.Errorf("tag %d reused", c.tag)
		}
		seen[c.tag] = true
	}
}
