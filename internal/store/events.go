package store

import (
	"encoding/json"
	"fmt"
	"time"

	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/crowd"
	"github.com/crowder/crowder/internal/learn"
	"github.com/crowder/crowder/internal/simjoin"
	"github.com/crowder/crowder/internal/verdicts"
)

// Event is one logged state mutation. The concrete types below form the
// session's entire durable vocabulary; a snapshot is nothing but a
// compacted stream of the same events.
//
// Events are encoded as a one-byte type tag followed by the JSON of the
// struct, framed and CRC-checked by the WAL layer.
type Event interface {
	tag() byte
	// durable events are fsynced before Log returns: they record paid (or
	// payable) work — verdict commits and worker answers. Everything else
	// is buffered and rides the next durable sync; a torn tail of
	// non-durable events always replays to a state the engine can reach
	// by re-running unpaid work.
	durable() bool
}

// Event type tags. Append-only: a tag, once released, is never reused.
const (
	tagMeta byte = iota + 1
	tagAppend
	tagPrune
	tagCommit
	tagQueuePosted
	tagQueueClaimed
	tagQueueAnswered
	tagQueueExpired
	tagQueueRetracted
	tagPending
	tagCacheState
	tagQueueState
	tagWindows
)

// Meta records session identity: the table schema, the aggregator bound
// to the verdict cache, and an opaque configuration blob (crowderd
// persists the table-creation request so recovery can rebuild the same
// Options). Fields merge: a later Meta overrides only the fields it sets.
// Spent is the session's cumulative crowd spend in dollars — the hybrid
// router's budget accounting — logged as a running total so the latest
// Meta alone restores it. Model is the hybrid router's learner as the
// last aggregation commit left it (about 300 bytes): a fact of the
// session's history, since a warm-started model is not a function of
// the verdict cache alone. Both ride the Meta frame the commit logs.
type Meta struct {
	Schema     []string        `json:"schema,omitempty"`
	Aggregator string          `json:"aggregator,omitempty"`
	Config     json.RawMessage `json:"config,omitempty"`
	Spent      float64         `json:"spent,omitempty"`
	Model      *learn.State    `json:"model,omitempty"`
}

func (*Meta) tag() byte     { return tagMeta }
func (*Meta) durable() bool { return true }

// Row is one appended record. Src is the cross-source tag passed to
// AppendFrom, or -1 for an untagged Append — the distinction matters:
// a table where any row was ever source-tagged pads all rows with tag 0,
// and CrossSourceOnly filtering keys off that.
type Row struct {
	Src    int      `json:"src"`
	Values []string `json:"values"`
}

// Append records a batch of appended rows.
type Append struct {
	Rows []Row `json:"rows"`
}

func (*Append) tag() byte     { return tagAppend }
func (*Append) durable() bool { return true }

// Prune records one candidate-generation boundary: the prefix of the
// table the similarity index absorbed, and the candidate pairs newly
// discovered this prune (already-pending retries are not re-logged).
// Replaying the boundaries rebuilds the index incrementally exactly as
// the live session built it, which is what keeps frozen prefix weights
// — and therefore candidate sets — bit-identical after recovery. Logs
// written while the resolver also offered token blocking carry a
// "blocked" cursor as well; decoding ignores it.
type Prune struct {
	Absorbed   int                  `json:"absorbed"`
	Discovered []simjoin.ScoredPair `json:"discovered,omitempty"`
}

func (*Prune) tag() byte     { return tagPrune }
func (*Prune) durable() bool { return false }

// Windows is one atomic verdict-cache transaction: the windows a
// lock-held commit section applied, in order, and whether it cleared
// the pending set, in one frame so a torn tail cannot split a commit.
// Replay applies them through the same verdicts.Cache.Apply. Logs from
// before this tag hold Commit frames instead (see legacy.go).
type Windows struct {
	W            []verdicts.Window `json:"w,omitempty"`
	ClearPending bool              `json:"clear,omitempty"`
}

func (*Windows) tag() byte     { return tagWindows }
func (*Windows) durable() bool { return true }

// QueuePosted records HITs opened (or topped up) on the queue backend.
type QueuePosted struct {
	HITs []crowd.HIT `json:"hits"`
	At   time.Time   `json:"at"`
}

func (*QueuePosted) tag() byte     { return tagQueuePosted }
func (*QueuePosted) durable() bool { return false }

// QueueClaimed records a worker's lease on one assignment.
type QueueClaimed struct {
	Token    string    `json:"tok"`
	HIT      int       `json:"hit"`
	Worker   string    `json:"worker"`
	At       time.Time `json:"at"`
	Deadline time.Time `json:"deadline,omitempty"`
}

func (*QueueClaimed) tag() byte     { return tagQueueClaimed }
func (*QueueClaimed) durable() bool { return false }

// QueueAnswered records a completed (paid) assignment — durable: this is
// the money. Late marks a lapsed-lease answer credited before the top-up
// was claimed.
type QueueAnswered struct {
	Token  string           `json:"tok"`
	HIT    int              `json:"hit"`
	Worker string           `json:"worker"`
	A      crowd.Assignment `json:"a"`
	Late   bool             `json:"late,omitempty"`
}

func (*QueueAnswered) tag() byte     { return tagQueueAnswered }
func (*QueueAnswered) durable() bool { return true }

// QueueExpired records leases dropped by a sweep.
type QueueExpired struct {
	Claims []crowd.ExpiredClaim `json:"claims"`
}

func (*QueueExpired) tag() byte     { return tagQueueExpired }
func (*QueueExpired) durable() bool { return false }

// QueueRetracted records withdrawn HITs.
type QueueRetracted struct {
	IDs []int `json:"ids"`
}

func (*QueueRetracted) tag() byte     { return tagQueueRetracted }
func (*QueueRetracted) durable() bool { return false }

// Pending is snapshot-only: the carried-over candidate pairs awaiting
// crowdsourcing.
type Pending struct {
	Scored []simjoin.ScoredPair `json:"scored"`
}

func (*Pending) tag() byte     { return tagPending }
func (*Pending) durable() bool { return true }

// CacheState is snapshot-only: the verdict cache serialized wholesale —
// every entry with likelihood, answers, posterior, provenance and
// deduction proof, plus un-judged partial answers. Dumping the cache
// directly (rather than re-deriving per-method events) is what makes a
// snapshot bit-exact regardless of the mutation order that produced it.
// The posteriors it carries are not authoritative: the log does not see
// a crowd session's aggregations, so asked and deduced entries hold
// whatever replay left them, and the resolver's restore re-derives them.
// Machine entries' posteriors are facts.
type CacheState struct {
	Entries  []verdicts.Entry   `json:"entries"`
	Partials []aggregate.Answer `json:"partials,omitempty"`
}

func (*CacheState) tag() byte     { return tagCacheState }
func (*CacheState) durable() bool { return true }

// QueueState is snapshot-only: the queue backend's full claim/answer
// state, including in-flight collected assignments awaiting their run's
// completion and the HIT ID floor.
type QueueState struct {
	S crowd.QueueSnapshot `json:"s"`
}

func (*QueueState) tag() byte     { return tagQueueState }
func (*QueueState) durable() bool { return true }

// encodeEvent renders tag + JSON payload.
func encodeEvent(ev Event) ([]byte, error) {
	body, err := json.Marshal(ev)
	if err != nil {
		return nil, fmt.Errorf("store: encoding event: %w", err)
	}
	out := make([]byte, 0, len(body)+1)
	out = append(out, ev.tag())
	return append(out, body...), nil
}

// decodeEvent parses one framed payload back into its event.
func decodeEvent(payload []byte) (Event, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("store: empty event payload")
	}
	var ev Event
	switch payload[0] {
	case tagMeta:
		ev = &Meta{}
	case tagAppend:
		ev = &Append{}
	case tagPrune:
		ev = &Prune{}
	case tagCommit:
		ev = &Commit{}
	case tagWindows:
		ev = &Windows{}
	case tagQueuePosted:
		ev = &QueuePosted{}
	case tagQueueClaimed:
		ev = &QueueClaimed{}
	case tagQueueAnswered:
		ev = &QueueAnswered{}
	case tagQueueExpired:
		ev = &QueueExpired{}
	case tagQueueRetracted:
		ev = &QueueRetracted{}
	case tagPending:
		ev = &Pending{}
	case tagCacheState:
		ev = &CacheState{}
	case tagQueueState:
		ev = &QueueState{}
	default:
		return nil, fmt.Errorf("store: unknown event tag 0x%02x", payload[0])
	}
	if err := json.Unmarshal(payload[1:], ev); err != nil {
		return nil, fmt.Errorf("store: decoding event tag 0x%02x: %w", payload[0], err)
	}
	return ev, nil
}
