package aggregate

import "fmt"

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
// options.
func New(m Method) (Aggregator, error) {
	switch m {
	case MethodDawidSkene:
		return dawidSkeneAggregator{}, nil
	case MethodMajorityVote:
		return majorityVoteAggregator{}, nil
	case MethodDawidSkeneMAP:
		return dawidSkeneMAPAggregator{}, nil
	default:
		return nil, fmt.Errorf("aggregate: unknown method %d", int(m))
	}
}

type dawidSkeneAggregator struct{}

func (dawidSkeneAggregator) Name() string { return MethodDawidSkene.String() }
func (dawidSkeneAggregator) Aggregate(answers []Answer) Posterior {
	return DawidSkene(answers, DawidSkeneOptions{})
}
func (dawidSkeneAggregator) Dense(answers []Answer) []float64 {
	return dawidSkene(answers, DawidSkeneOptions{}).dense()
}

type majorityVoteAggregator struct{}

func (majorityVoteAggregator) Name() string { return MethodMajorityVote.String() }
func (majorityVoteAggregator) Aggregate(answers []Answer) Posterior {
	return MajorityVote(answers)
}
func (majorityVoteAggregator) Dense(answers []Answer) []float64 {
	return indexAnswers(answers).dense()
}

type dawidSkeneMAPAggregator struct{}

func (dawidSkeneMAPAggregator) Name() string { return MethodDawidSkeneMAP.String() }
func (dawidSkeneMAPAggregator) Aggregate(answers []Answer) Posterior {
	return DawidSkeneMAP(answers, MAPOptions{})
}
func (dawidSkeneMAPAggregator) Dense(answers []Answer) []float64 {
	return dawidSkeneMAP(answers, MAPOptions{}).dense()
}
