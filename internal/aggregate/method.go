package aggregate

import (
	"fmt"
	"sync"
)

// Method enumerates the built-in answer aggregators.
type Method int

const (
	// MethodDawidSkene is plain Dawid–Skene EM with additive smoothing —
	// the zero value and the default, bit-identical to the historical
	// aggregation path.
	MethodDawidSkene Method = iota
	// MethodMajorityVote is the per-pair match fraction, the baseline
	// the paper argues against ("susceptible to spammers").
	MethodMajorityVote
	// MethodDawidSkeneMAP is Dawid–Skene with MAP M-steps: informative
	// diagonal confusion priors plus pool-mean anchoring of workers who
	// have not covered both classes. It fixes the sparse-coverage
	// degeneracy (see DawidSkeneMAP) at the price of changed outputs, so
	// it ships behind its own acceptance gate.
	MethodDawidSkeneMAP
)

// String returns the method's wire name — the identity persisted by the
// verdict cache and accepted by the service API.
func (m Method) String() string {
	switch m {
	case MethodDawidSkene:
		return "dawid-skene"
	case MethodMajorityVote:
		return "majority-vote"
	case MethodDawidSkeneMAP:
		return "dawid-skene-map"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// ParseMethod maps a wire name back to its Method. The empty string
// selects the default.
func ParseMethod(s string) (Method, error) {
	switch s {
	case "", "dawid-skene":
		return MethodDawidSkene, nil
	case "majority-vote":
		return MethodMajorityVote, nil
	case "dawid-skene-map":
		return MethodDawidSkeneMAP, nil
	default:
		return 0, fmt.Errorf(`aggregate: unknown method %q (want "dawid-skene", "majority-vote" or "dawid-skene-map")`, s)
	}
}

// Aggregator combines an answer set into per-pair match posteriors. An
// aggregator must be a pure function of the answer *set*: callers hand
// it canonically ordered answers (SortCanonical) and rely on identical
// output for identical input, batch sequence notwithstanding.
type Aggregator interface {
	// Name is the aggregator's stable identity — persisted alongside
	// cached verdicts so a session never re-aggregates one cache under
	// two different methods.
	Name() string
	// Aggregate maps the answers to each judged pair's match posterior.
	Aggregate(answers []Answer) Posterior
	// Dense is Aggregate as a slice: the posteriors of the answers' pairs
	// in order of first appearance — canonical pair order for
	// canonically sorted answers — bit for bit the values Aggregate maps
	// them to.
	Dense(answers []Answer) []float64
}

// New returns the Aggregator for a method, with that method's default
// options. The aggregator keeps one answer index and rebuilds it in
// place on every call, so a session re-aggregating each delta reuses its
// storage; calls serialize on the aggregator's lock.
func New(m Method) (Aggregator, error) {
	var fit func(*answerIndex)
	switch m {
	case MethodDawidSkene:
		fit = func(ix *answerIndex) { ix.dawidSkene(DawidSkeneOptions{}) }
	case MethodMajorityVote:
		fit = func(*answerIndex) {}
	case MethodDawidSkeneMAP:
		fit = func(ix *answerIndex) { ix.dawidSkeneMAP(MAPOptions{}) }
	default:
		return nil, fmt.Errorf("aggregate: unknown method %d", int(m))
	}
	return &aggregator{method: m, fit: fit}, nil
}

// aggregator is a built-in method with its reused index.
type aggregator struct {
	method Method
	fit    func(*answerIndex)
	mu     sync.Mutex
	ix     answerIndex
}

func (a *aggregator) Name() string { return a.method.String() }

func (a *aggregator) Aggregate(answers []Answer) Posterior {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ix.build(answers)
	a.fit(&a.ix)
	return a.ix.posterior()
}

func (a *aggregator) Dense(answers []Answer) []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.ix.build(answers)
	a.fit(&a.ix)
	return a.ix.dense()
}
