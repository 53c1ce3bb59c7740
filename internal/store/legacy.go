package store

import (
	"github.com/crowder/crowder/internal/aggregate"
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/simjoin"
	"github.com/crowder/crowder/internal/transitivity"
	"github.com/crowder/crowder/internal/verdicts"
)

// The legacy ops' payloads: a pair judged by the crowd (PutOp), a
// deduced verdict with its proof (DeduceOp), a machine verdict, written
// as it still is (MachineOp), and an aggregated posterior (PairVal).
type (
	PutOp struct {
		Pair       record.Pair `json:"pair"`
		Likelihood float64     `json:"lik"`
	}
	DeduceOp struct {
		D          transitivity.Deduction `json:"d"`
		Likelihood float64                `json:"lik"`
	}
	MachineOp = verdicts.MachineVerdict
	PairVal   struct {
		Pair record.Pair `json:"pair"`
		Val  float64     `json:"val"`
	}
)

// Op is one step of a Commit, in live mutation order; exactly one field
// group is set. Posteriors ops come from older builds still: a crowd
// session's posteriors per delta, or a machine-only session's
// likelihoods next to Put ops. Replay applies them by SetPosteriors, the
// one cache mutation only legacy frames make; the resolver's restore
// re-aggregates the former and turns the latter into machine entries.
type Op struct {
	Put          *PutOp             `json:"put,omitempty"`
	Deduce       *DeduceOp          `json:"ded,omitempty"`
	Machine      *MachineOp         `json:"mach,omitempty"`
	Answers      []aggregate.Answer `json:"ans,omitempty"`
	Partial      []aggregate.Answer `json:"part,omitempty"`
	Posteriors   []PairVal          `json:"post,omitempty"`
	ClearPending bool               `json:"clear,omitempty"`
}

// Commit is the legacy form of Windows, a transaction of per-pair ops.
// Logs written before the Windows tag hold it and still load: replay
// turns each op into the window it describes. It stays encodable.
type Commit struct {
	Ops []Op `json:"ops"`
}

func (*Commit) tag() byte     { return tagCommit }
func (*Commit) durable() bool { return true }

// replay applies the commit's ops to the cache in order, each as its
// window, and reports whether the commit cleared the pending set.
func (c *Commit) replay(cache *verdicts.Cache) (clearPending bool) {
	for _, op := range c.Ops {
		var w verdicts.Window
		switch {
		case op.Put != nil:
			w.Asked = &verdicts.AskedWindow{Pairs: []simjoin.ScoredPair{{Pair: op.Put.Pair, Likelihood: op.Put.Likelihood}}}
		case op.Deduce != nil:
			w.Deduced = []verdicts.DeducedVerdict{{Likelihood: op.Deduce.Likelihood, Proof: op.Deduce.D}}
		case op.Machine != nil:
			w.Machine = []verdicts.MachineVerdict{*op.Machine}
		case op.Answers != nil:
			w.Asked = &verdicts.AskedWindow{Answers: op.Answers}
		case op.Partial != nil:
			w.Partial = op.Partial
		case op.Posteriors != nil:
			post := make(aggregate.Posterior, len(op.Posteriors))
			for _, pv := range op.Posteriors {
				post[pv.Pair] = pv.Val
			}
			cache.SetPosteriors(post)
		case op.ClearPending:
			clearPending = true
		}
		cache.Apply(w)
	}
	return clearPending
}
