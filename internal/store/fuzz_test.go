package store

import (
	"bytes"
	"testing"
	"time"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/learn"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/simjoin"
	"github.com/crowder/crowder/internal/transitivity"
	"github.com/crowder/crowder/internal/verdicts"
)

// seedPayloads returns valid encoded events covering every tag, used to
// seed both fuzzers (alongside the checked-in corpus in testdata/fuzz).
func seedPayloads(tb testing.TB) [][]byte {
	tb.Helper()
	at := time.Unix(5000, 0).UTC()
	hits := []crowd.HIT{{ID: 3, Kind: crowd.PairKind, Pairs: []record.Pair{record.MakePair(0, 1)}, Assignments: 1}}
	answered := crowd.Assignment{HIT: 3, Worker: 0, Answers: []aggregate.Answer{{Pair: record.MakePair(0, 1), Worker: 0, Match: true}}}
	events := []Event{
		&Meta{Schema: []string{"name"}, Aggregator: "dawid-skene"},
		&Meta{Spent: 1.5, Model: &learn.State{W: []float64{0.5, -1.25e-7}, B: -2.75, T: 3150, Full: 60, N: 63, FP: 1<<63 | 5}},
		&Append{Rows: []Row{{Src: -1, Values: []string{"a", "b"}}}},
		&Prune{Absorbed: 2, Discovered: []simjoin.ScoredPair{{Pair: record.MakePair(0, 1), Likelihood: 0.5}}},
		&Commit{Ops: []Op{{Put: &PutOp{Pair: record.MakePair(0, 1), Likelihood: 0.5}}, {ClearPending: true}}},
		&QueuePosted{HITs: hits, At: at},
		&QueueClaimed{Token: "t1", HIT: 3, Worker: "alice", At: at, Deadline: at.Add(time.Minute)},
		&QueueAnswered{Token: "t1", HIT: 3, Worker: "alice", A: answered, Late: true},
		&QueueExpired{Claims: []crowd.ExpiredClaim{{Token: "t2", HIT: 4, Worker: "bob"}}},
		&QueueRetracted{IDs: []int{3, 4}},
		&Pending{Scored: []simjoin.ScoredPair{{Pair: record.MakePair(1, 2), Likelihood: 0.25}}},
		&CacheState{
			Entries:  []verdicts.Entry{{Pair: record.MakePair(0, 1), Likelihood: 0.5, Answers: answered.Answers, Posterior: 0.9}},
			Partials: []aggregate.Answer{{Pair: record.MakePair(1, 2), Worker: 1}},
		},
		&QueueState{S: crowd.QueueSnapshot{
			HITs:      hits,
			Open:      map[int]int{3: 1},
			Order:     []int{3},
			Workers:   []string{"alice"},
			Claims:    []crowd.ClaimSnapshot{{Token: "t3", HIT: 3, Worker: "carol", ClaimedAt: at}},
			Collected: map[int][]crowd.Assignment{3: {answered}},
			NextHITID: 4,
		}},
		&Windows{W: []verdicts.Window{
			{Asked: &verdicts.AskedWindow{
				Pairs: []simjoin.ScoredPair{{Pair: record.MakePair(0, 1), Likelihood: 0.5}}, Reserve: 3,
				Answers: []aggregate.Answer{{Pair: record.MakePair(0, 1), Match: true}, {Pair: record.MakePair(2, 3), Worker: 1}},
				At:      []int32{0, -1},
			}},
			{Machine: []verdicts.MachineVerdict{{Pair: record.MakePair(1, 2), Likelihood: 0.4, Posterior: 0.03}}},
			{Deduced: []verdicts.DeducedVerdict{{Likelihood: 0.25, Proof: transitivity.Deduction{
				Pair: record.MakePair(0, 2), Match: true, Path: []record.Pair{record.MakePair(0, 1), record.MakePair(1, 2)},
			}}}},
			{Partial: []aggregate.Answer{{Pair: record.MakePair(4, 5), Worker: 2}}},
		}, ClearPending: true},
	}
	var out [][]byte
	for _, ev := range events {
		p, err := encodeEvent(ev)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, p)
	}
	return out
}

// TestSeedPayloadsCoverEveryTag: Log writes events without decoding
// them, so this is where every tag is checked to decode back to an
// event that re-encodes byte for byte and replays.
func TestSeedPayloadsCoverEveryTag(t *testing.T) {
	seen := map[byte]bool{}
	st := newReplayState()
	for _, p := range seedPayloads(t) {
		ev, err := decodeEvent(p)
		if err != nil {
			t.Fatalf("tag 0x%02x: %v", p[0], err)
		}
		if re, err := encodeEvent(ev); err != nil || !bytes.Equal(re, p) {
			t.Fatalf("tag 0x%02x re-encodes to %q (err %v); want %q", p[0], re, err, p)
		}
		if err := st.apply(ev); err != nil {
			t.Fatalf("tag 0x%02x: replay: %v", p[0], err)
		}
		seen[p[0]] = true
	}
	for tag := tagMeta; tag <= tagWindows; tag++ {
		if !seen[tag] {
			t.Errorf("no seed payload for tag 0x%02x", tag)
		}
	}
}

// FuzzDecodeEvent hammers the event decoder with arbitrary payloads: it
// must never panic, and any payload it accepts must re-encode to
// something it accepts again (decode is total on encode's range).
func FuzzDecodeEvent(f *testing.F) {
	for _, p := range seedPayloads(f) {
		f.Add(p)
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{tagCommit, '{'})
	f.Fuzz(func(t *testing.T, payload []byte) {
		ev, err := decodeEvent(payload)
		if err != nil {
			return
		}
		re, err := encodeEvent(ev)
		if err != nil {
			t.Fatalf("decoded event failed to re-encode: %v", err)
		}
		if re[0] != payload[0] {
			t.Fatalf("tag changed across decode/encode: 0x%02x -> 0x%02x", payload[0], re[0])
		}
		if _, err := decodeEvent(re); err != nil {
			t.Fatalf("re-encoded event failed to decode: %v", err)
		}
		// Replay must also never panic on a decodable event.
		st := newReplayState()
		if err := st.apply(ev); err != nil {
			t.Fatalf("replay of decodable event errored: %v", err)
		}
	})
}

// FuzzScanFrames hammers the WAL frame scanner with arbitrary bytes: no
// panics, the valid prefix never exceeds the input, and the prefix it
// reports always re-scans clean (recovery truncates to it and appends).
func FuzzScanFrames(f *testing.F) {
	var healthy []byte
	for _, p := range seedPayloads(f) {
		healthy = appendFrame(healthy, p)
	}
	f.Add(healthy)
	f.Add(healthy[:len(healthy)-3])             // torn tail
	f.Add(append([]byte{frameMagic}, 0, 0, 0))  // short header
	f.Add(bytes.Repeat([]byte{frameMagic}, 64)) // garbage magic run
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		valid, torn, err := scanFrames("fuzz", data, nil)
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid offset %d out of range [0,%d]", valid, len(data))
		}
		if err == nil && !torn && valid != int64(len(data)) {
			t.Fatalf("clean scan stopped early: %d of %d", valid, len(data))
		}
		revalid, retorn, reerr := scanFrames("fuzz", data[:valid], nil)
		if reerr != nil || retorn || revalid != valid {
			t.Fatalf("valid prefix did not re-scan clean: valid=%d retorn=%v reerr=%v", revalid, retorn, reerr)
		}
	})
}
