package verdicts

import (
	"encoding/json"
	"errors"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/simjoin"
	"github.com/crowder/crowder/internal/transitivity"
)

// Window is one step of a verdict commit: a batch of verdicts of one
// kind, so exactly one field is set. A commit is a sequence of windows
// in the order the session applied them, and a durable session logs
// that sequence: replay mutates the cache through the same Apply.
type Window struct {
	Asked   *AskedWindow       `json:"ask,omitempty"`
	Machine []MachineVerdict   `json:"mach,omitempty"`
	Deduced []DeducedVerdict   `json:"ded,omitempty"`
	Partial []aggregate.Answer `json:"part,omitempty"`
}

// AskedWindow is a window of crowd-judged pairs: Put of each pair with
// its likelihood, room for Reserve answers on every entry holding none
// (the replication factor: a pair's answers take one allocation), then
// AddAnswers of the answers. At[i] is the index in Pairs of Answers[i]'s
// pair, or −1 for a pair outside the window; nil At means all −1.
type AskedWindow struct {
	Pairs   []simjoin.ScoredPair
	Reserve int
	Answers []aggregate.Answer
	At      []int32
}

// MachineVerdict is a pair the hybrid router resolved without a HIT,
// with the router's posterior (see putMachine).
type MachineVerdict struct {
	Pair       record.Pair `json:"pair"`
	Likelihood float64     `json:"lik"`
	Posterior  float64     `json:"post"`
}

// DeducedVerdict is a verdict transitivity proved (see putDeduced).
type DeducedVerdict struct {
	Likelihood float64                `json:"lik"`
	Proof      transitivity.Deduction `json:"proof"`
}

// Apply applies one window to the cache: the one mutation a live commit
// and the replay of its log share. Partial answers come from a
// resolution that ended before all of its HITs completed.
func (c *Cache) Apply(w Window) {
	if w.Asked != nil {
		c.applyAsked(w.Asked)
	}
	for _, v := range w.Machine {
		c.putMachine(v.Pair, v.Likelihood, v.Posterior)
	}
	for _, v := range w.Deduced {
		c.putDeduced(v.Likelihood, v.Proof)
	}
	if len(w.Partial) > 0 {
		c.addPartialAnswers(w.Partial)
	}
}

// applyAsked applies an asked window: the pairs new to the cache join
// the canonical order through one sort and one merge and take their
// entries and answers from shared chunks, and an answer with an index
// reaches its entry without a lookup.
func (c *Cache) applyAsked(w *AskedWindow) {
	n := min(max(w.Reserve, 0), maxReserve)
	entries, fresh := make([]*Entry, len(w.Pairs)), make([]*Entry, 0, len(w.Pairs))
	var slab []Entry
	var answers []aggregate.Answer
	for i, sp := range w.Pairs {
		if _, ok := c.entries[sp.Pair]; ok {
			entries[i] = c.Put(sp.Pair, sp.Likelihood)
			if entries[i].Answers == nil && n > 0 {
				entries[i].Answers = make([]aggregate.Answer, 0, n)
			}
			continue
		}
		if len(slab) == cap(slab) {
			// Chunks within the allocator's small size classes: one
			// block per window raised a batch resolve's peak heap.
			slab = make([]Entry, 0, min(entryChunk, len(w.Pairs)-i))
			answers = make([]aggregate.Answer, cap(slab)*n)
		}
		k := len(slab)
		slab = append(slab, Entry{Pair: sp.Pair, Likelihood: sp.Likelihood, Answers: answers[k*n : k*n : (k+1)*n]})
		entries[i] = &slab[k]
		c.entries[sp.Pair] = entries[i]
		fresh = append(fresh, entries[i])
	}
	if len(fresh) > 0 {
		sortEntries(fresh)
		c.addRecent(fresh)
	}
	shed := len(c.partial) > 0
	for i, a := range w.Answers {
		var e *Entry
		if w.At != nil && w.At[i] >= 0 {
			e = entries[w.At[i]]
		} else if e = c.entries[a.Pair]; e == nil {
			e = c.Put(a.Pair, 0)
		}
		if e.Provenance == Machine {
			// Real crowd evidence supersedes the classifier's guess: the
			// pair re-aggregates with the answer set from here on.
			e.Provenance = Asked
		}
		e.Answers = append(e.Answers, a)
		if shed {
			delete(c.partial, a.Pair)
		}
	}
}

// entryChunk is how many entries applyAsked allocates at a time, and
// maxReserve bounds the answers it reserves per entry, so a corrupt log
// cannot make it allocate without bound: a larger replication regrows.
const entryChunk, maxReserve = 256, 1 << 10

// askedJSON is an asked window on the wire. Each answer is [index in
// Pairs or −1, worker, 1 for a match]; one at −1 takes its pair from
// Outside, in order.
type askedJSON struct {
	Pairs   []simjoin.ScoredPair `json:"pairs,omitempty"`
	Reserve int                  `json:"res,omitempty"`
	Answers [][3]int             `json:"ans,omitempty"`
	Outside []record.Pair        `json:"out,omitempty"`
}

// MarshalJSON writes each answer as index, worker and verdict.
func (w AskedWindow) MarshalJSON() ([]byte, error) {
	j := askedJSON{Pairs: w.Pairs, Reserve: w.Reserve, Answers: make([][3]int, len(w.Answers))}
	for i, a := range w.Answers {
		j.Answers[i] = [3]int{-1, a.Worker, 0}
		if w.At != nil && w.At[i] >= 0 {
			j.Answers[i][0] = int(w.At[i])
		} else {
			j.Outside = append(j.Outside, a.Pair)
		}
		if a.Match {
			j.Answers[i][2] = 1
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON rebuilds the answers, refusing an index past the
// window: replay must never read past it.
func (w *AskedWindow) UnmarshalJSON(data []byte) error {
	var j askedJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*w = AskedWindow{Pairs: j.Pairs, Reserve: j.Reserve, Answers: make([]aggregate.Answer, len(j.Answers)), At: make([]int32, len(j.Answers))}
	for i, x := range j.Answers {
		w.At[i], w.Answers[i] = -1, aggregate.Answer{Worker: x[1], Match: x[2] == 1}
		switch {
		case x[0] >= 0 && x[0] < len(j.Pairs):
			w.At[i], w.Answers[i].Pair = int32(x[0]), j.Pairs[x[0]].Pair
		case x[0] < 0 && len(j.Outside) > 0:
			w.Answers[i].Pair, j.Outside = j.Outside[0], j.Outside[1:]
		default:
			return errors.New("verdicts: an asked window's answer names no pair")
		}
	}
	return nil
}
