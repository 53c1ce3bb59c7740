// Package learn is the hybrid router's online classifier: the learning
// subsystem that closes CrowdER's human–machine loop. The verdict cache
// a session accumulates — crowd-judged and transitively deduced pairs —
// is a free labeled set that grows with every delta; this package trains
// a linear SVM (TrainSVM, Pegasos) over it after each aggregation
// commit and derives a margin band of uncertainty from the training
// distribution. Scored candidates outside the band are resolved by
// machine (accept above, reject below); only the band itself is sent to
// the crowd, so crowd cost falls over the session's lifetime.
//
// A pair's feature vector is a pure function of its two records, which
// never change once appended, so a session computes it once: Features is
// the per-session memo both training and routing read vectors through,
// and a retrain after a delta computes vectors only for pairs it has
// never seen. The memo is derived state, held in memory only.
//
// A session retrains through Update after every aggregation commit: no
// training when the label set is unchanged, one warm Pegasos epoch from
// the previous model for a modest delta, and a full Train when the set
// shrank or grew by a quarter since the last full train. A warm-started
// model depends on the session's history, not on its labels alone, so a
// session journals it (State) and recovery restores it (Restore).
//
// Everything here is deterministic: labels are consumed in canonical
// pair order, the SVM's stochastic example order is driven by the
// session seed (and a warm step's by the seed and step counter), and
// the band is a pure function of (model, labels, risk). A learner is
// bit-identical at every parallelism level, which is what preserves the
// resolver's parallelism-identity and recovered ≡ never-crashed
// guarantees.
package learn

import (
	"fmt"
	"math"
	"slices"

	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/similarity"
)

// MaxRisk caps the per-class machine-error budget a band may be derived
// from: even under extreme budget pressure the router never accepts a
// training quantile looser than this.
const MaxRisk = 0.25

// DefaultRisk is the machine-error budget when the caller sets none.
// It reads tight — one observed training error in a thousand tolerated
// outside the band — because the band already absorbs model risk in
// two other places: the accept bar extrapolates past the worst observed
// negative by the extreme-tail spread, and the reject bar is floored at
// RejectRisk. Session-level adaptation (pool quality, budget pressure)
// loosens it from here.
const DefaultRisk = 0.001

// RejectRisk floors the reject side's quantile. The two machine errors
// are not symmetric: a false accept merges two different entities (a
// precision error that poisons transitive deduction), while a false
// reject loses a single pair of recall — the same loss the likelihood
// threshold already trades on wholesale. The reject cut therefore
// tolerates a higher fraction of training positives below it than the
// configured risk, which matters because the *worst* training-positive
// margins are dominated by label noise and heavily corrupted duplicates:
// anchoring Lo on them parks the reject threshold beneath the entire
// negative mass and disables machine rejection outright.
const RejectRisk = 0.05

// tailQuantile is the start of the negative distribution's upper tail
// used to extrapolate beyond the observed maximum: the accept bar adds
// the spread of the top (1 − tailQuantile) of training-negative margins
// on top of the risk quantile. The observed negatives are a finite
// sample — unseen confusables will overshoot their maximum by roughly
// the width of the sampled extreme tail, and the most damaging false
// accepts land exactly in that just-above-the-max zone.
const tailQuantile = 0.99

// DefaultMinLabels is the training-set floor below which the learner
// reports not ready and everything routes to the crowd.
const DefaultMinLabels = 24

// minPerClass is the per-class floor: a classifier that has seen fewer
// than this many examples of either class has no measurable band.
const minPerClass = 4

// marginGap is the band's half-width floor in margin units: the band
// never collapses below |margin| < marginGap even when the training
// classes separate perfectly (a perfectly separated training set says
// nothing about pairs the model has not seen).
const marginGap = 0.5

// Label is one training observation: a pair with its current session
// verdict (posterior ≥ 0.5). Synthetic marks a presumed label — a
// machine-pruned pair assumed non-matching under the workflow's
// threshold assumption rather than judged by the crowd. Synthetic
// negatives anchor the accept side of the band (a candidate must score
// above even these to be machine-accepted) but are too easy to define a
// reject boundary: a learner whose negatives are mostly synthetic never
// machine-rejects.
type Label struct {
	Pair      record.Pair
	Match     bool
	Synthetic bool
}

// Options configures Train.
type Options struct {
	// Seed drives the SVM's stochastic example order. Training is
	// deterministic in (labels, Options).
	Seed int64
	// MinLabels is the training-set floor (default DefaultMinLabels).
	MinLabels int
}

// Learner is a trained router classifier plus the per-class training
// margin distributions its uncertainty bands are cut from. A Learner is
// immutable after Train or Update; concurrent Margin/Band calls are safe.
type Learner struct {
	attrs    []int
	model    *SVM
	pos, neg int
	// realNeg counts the non-synthetic negatives: the crowd-observed
	// evidence that decides whether the learner may machine-reject.
	realNeg int
	// posMargins and negMargins are the training margins per class,
	// sorted ascending: the empirical distributions Band quantiles.
	posMargins, negMargins []float64
	// steps is the Pegasos step counter t the model's learning rate
	// 1/(λt) reached; full is the label count at the last full train;
	// fp fingerprints the label set the learner was trained on.
	steps, full int
	fp          uint64
}

// State is a learner in the form a session journals it: the model, the
// Pegasos step counter, the label count at the last full train, and the
// label count and fingerprint of the set it was trained on. W is empty
// for a learner that is not ready. With the labels it was trained on, a
// State rebuilds its learner bit for bit (Features.Restore).
type State struct {
	W    []float64 `json:"w,omitempty"`
	B    float64   `json:"b,omitempty"`
	T    int       `json:"t,omitempty"`
	Full int       `json:"full,omitempty"`
	N    int       `json:"n"`
	FP   uint64    `json:"fp"`
}

// State returns the learner's journaled form. It shares the model's
// weights, which are never modified.
func (l *Learner) State() *State {
	s := &State{T: l.steps, Full: l.full, N: l.pos + l.neg, FP: l.fp}
	if l.model != nil {
		s.W, s.B = l.model.W, l.model.B
	}
	return s
}

// Train fits a learner from the labeled pairs over every attribute of
// the table, computing each vector afresh: Features.Train on a memo that
// lives for this call only.
func Train(t *record.Table, labels []Label, opts Options) (*Learner, error) {
	if t == nil {
		return nil, fmt.Errorf("learn: nil table")
	}
	return NewFeatures(t).Train(labels, opts)
}

// Train fits a learner from the labeled pairs, reading their vectors
// through the memo. Synthetic labels are computed but never memoised,
// so the memo holds only pairs the session has judged or is about to
// route. Labels are re-sorted into canonical pair order internally, so
// the result is a pure function of the label *set* — callers may pass
// cache iterations in any order — and bit-identical whichever vectors
// the memo already held. A learner below the label or per-class floors
// is returned non-ready (never an error): routing simply sends
// everything to the crowd until the session has paid for enough
// verdicts.
func (f *Features) Train(labels []Label, opts Options) (*Learner, error) {
	sorted, fp := canonical(labels)
	return f.advance(nil, sorted, fp, opts), nil
}

// Update is the session's retrain: the learner for the current labels,
// given the one trained at the previous aggregation commit (nil for
// none). Three outcomes, each deterministic in (prev, labels, opts):
//   - the label set is unchanged (count and fingerprint): prev itself,
//     no training;
//   - prev is not ready, the set shrank, or it has grown by at least a
//     quarter since prev's last full train: a full Train;
//   - otherwise a warm step: one Pegasos epoch over the labels, ordered
//     by the seed offset by prev's step counter, starting from prev's
//     weights and step counter, so the learning rate continues.
//
// The warm step keeps a long session's retrain at delta cost; the
// full-train cadence bounds how far its model drifts from a cold Train.
func (f *Features) Update(prev *Learner, labels []Label, opts Options) (*Learner, error) {
	sorted, fp := canonical(labels)
	if prev != nil && prev.pos+prev.neg == len(sorted) && prev.fp == fp {
		return prev, nil
	}
	var s *State
	if prev.Ready() {
		s = prev.State()
	}
	return f.advance(s, sorted, fp, opts), nil
}

// Restore rebuilds the journaled learner s for the current labels. When
// they are the set s was trained on, the result is bit-identical to the
// learner s was journaled from. When they differ — the session logged
// new verdicts but stopped before it journaled the retrained model — it
// runs the step Update would have run from s. A zero State is a learner
// never journaled: Restore then runs a full Train. Weights that do not
// fit the table's feature vectors are an error.
func (f *Features) Restore(s State, labels []Label, opts Options) (*Learner, error) {
	sorted, fp := canonical(labels)
	var prev *State
	if len(s.W) > 0 {
		if dim := 2*len(f.attrs) + 3; len(s.W) != dim {
			return nil, fmt.Errorf("learn: journaled model has %d weights; the table's feature vectors have %d", len(s.W), dim)
		}
		prev = &s
	}
	if len(sorted) != s.N || fp != s.FP {
		return f.advance(prev, sorted, fp, opts), nil
	}
	l, _ := f.tally(sorted, fp, opts)
	l.steps, l.full = s.T, s.Full
	if prev != nil {
		l.fit(f.rows(sorted), append(slices.Clip(s.W), s.B))
	}
	return l, nil
}

// advance trains the learner for the sorted labels from a ready
// predecessor's state (nil for none), as Update decides: a warm step
// from prev, or a full train of svmEpochs epochs from zero weights.
func (f *Features) advance(prev *State, sorted []Label, fp uint64, opts Options) *Learner {
	l, ready := f.tally(sorted, fp, opts)
	warm := prev != nil && len(sorted) >= prev.N && 4*len(sorted) < 5*prev.Full
	l.full = len(sorted)
	if warm {
		l.full = prev.Full
	}
	if !ready {
		return l
	}
	r := f.rows(sorted)
	w, t, seed, epochs := make([]float64, r.dim+1), 0, opts.Seed, svmEpochs
	if warm {
		w, t, seed, epochs = append(slices.Clone(prev.W), prev.B), prev.T, opts.Seed+int64(prev.T), 1
	}
	l.steps = r.pegasos(w, t, seed, epochs)
	l.fit(r, w)
	return l
}

// tally returns an untrained learner with the labels' class counts, and
// whether they clear the label and per-class floors a model needs.
func (f *Features) tally(sorted []Label, fp uint64, opts Options) (*Learner, bool) {
	l := &Learner{attrs: f.attrs, fp: fp}
	for _, lb := range sorted {
		if lb.Match {
			l.pos++
		} else {
			l.neg++
			if !lb.Synthetic {
				l.realNeg++
			}
		}
	}
	minLabels := opts.MinLabels
	if minLabels <= 0 {
		minLabels = DefaultMinLabels
	}
	return l, len(sorted) >= minLabels && l.pos >= minPerClass && l.neg >= minPerClass
}

// rows lays the labels out as a Pegasos training set: a label's row is
// a view of its memoised vector, and only synthetic labels are computed,
// into a side buffer. Vectors are never modified, so a view stays valid
// when a later append moves the buffer it points into.
func (f *Features) rows(sorted []Label) *rows {
	r := &rows{dim: 2*len(f.attrs) + 3, x: make([][]float64, 0, len(sorted))}
	var side []float64
	for _, lb := range sorted {
		v := side
		if lb.Synthetic {
			side = f.compute(side, lb.Pair)
			v = side[len(v):len(side):len(side)]
		} else {
			v = f.Vector(lb.Pair)
		}
		r.x = append(r.x, v)
		r.label(lb.Match)
	}
	return r
}

// fit installs the trained weights w (bias in the last slot) as the
// learner's model and cuts its per-class training margins.
func (l *Learner) fit(r *rows, w []float64) {
	l.model = &SVM{W: w[:r.dim], B: w[r.dim]}
	l.posMargins, l.negMargins = make([]float64, 0, r.pos), make([]float64, 0, r.neg)
	for i, y := range r.y {
		m := l.model.Score(r.row(i))
		if y > 0 {
			l.posMargins = append(l.posMargins, m)
		} else {
			l.negMargins = append(l.negMargins, m)
		}
	}
	slices.Sort(l.posMargins)
	slices.Sort(l.negMargins)
}

// canonical sorts a copy of the labels into canonical pair order and
// fingerprints the sorted set: the count, then an FNV-style
// multiply-xor chain over each label's pair, class and synthetic flag.
func canonical(labels []Label) ([]Label, uint64) {
	sorted := slices.Clone(labels)
	slices.SortFunc(sorted, func(a, b Label) int { return record.ComparePairs(a.Pair, b.Pair) })
	const prime = 0x100000001b3
	h := uint64(len(sorted))
	for _, lb := range sorted {
		k := uint64(lb.Pair.B) << 2
		if lb.Match {
			k |= 1
		}
		if lb.Synthetic {
			k |= 2
		}
		h = ((h^uint64(lb.Pair.A))*prime ^ k) * prime
	}
	return sorted, h
}

// Ready reports whether the learner has a trained model: enough labels,
// both classes represented. A non-ready learner routes everything to
// the crowd.
func (l *Learner) Ready() bool { return l != nil && l.model != nil }

// Labels returns the per-class training counts the learner was built
// from (counted even when not ready, for observability).
func (l *Learner) Labels() (pos, neg int) {
	if l == nil {
		return 0, 0
	}
	return l.pos, l.neg
}

// Margin returns the model's signed margin for the pair; positive means
// match-like. Only valid when Ready.
func (l *Learner) Margin(t *record.Table, p record.Pair) float64 {
	f := Features{t: t, attrs: l.attrs}
	return l.model.Score(f.compute(nil, p))
}

// Features is a feature memo: the router's feature vector of each pair
// of one table, over all of its attributes, computed on first use and kept
// for the memo's lifetime. Vectors sit back to back in one flat arena of
// fixed stride, indexed by pair, so a session's memo costs a map entry
// plus 8 bytes per feature. A vector is a pure function of two immutable
// records, so a memoised one is bit-identical to a fresh computation.
// A Features is not safe for concurrent use: its owner writes it only
// under its own exclusive lock.
type Features struct {
	t     *record.Table
	attrs []int
	arena []float64
	index map[record.Pair]int32
}

// NewFeatures returns an empty memo over every attribute of the table.
func NewFeatures(t *record.Table) *Features {
	attrs := make([]int, len(t.Schema))
	for i := range attrs {
		attrs[i] = i
	}
	return &Features{t: t, attrs: attrs, index: make(map[record.Pair]int32)}
}

// Len returns the number of memoised vectors.
func (f *Features) Len() int { return len(f.index) }

// Vector returns the pair's feature vector, computing and memoising it
// on first use. The result must not be modified.
func (f *Features) Vector(p record.Pair) []float64 {
	stride := 2*len(f.attrs) + 3
	i, ok := f.index[p]
	if !ok {
		i = int32(len(f.index))
		f.index[p] = i
		f.arena = f.compute(f.arena, p)
	}
	off := int(i) * stride
	return f.arena[off : off+stride : off+stride]
}

// Margin returns the learner's margin for the pair through the memo;
// equal to l.Margin on the memo's table.
func (f *Features) Margin(l *Learner, p record.Pair) float64 {
	return l.model.Score(f.Vector(p))
}

// compute appends the router's feature vector for the pair to dst: the
// per-attribute Levenshtein and cosine similarities
// (FeatureVector), extended with the minimum and mean per-attribute
// similarity and the whole-record Jaccard (the same likelihood the
// pruning pass ranks candidates by). The aggregates let a *linear* model
// express "one attribute strongly disagrees" — the failure mode of
// surface-similar non-matches (identical name, different city), which
// per-attribute features alone cannot separate without feature crosses
// — and the Jaccard ties the model to the machine pass's global
// evidence.
func (f *Features) compute(dst []float64, p record.Pair) []float64 {
	base := FeatureVector(f.t, p, f.attrs)
	minSim, meanSim := 1.0, 0.0
	n := 0
	for i := 0; i+1 < len(base); i += 2 {
		sim := max(base[i], base[i+1])
		if sim < minSim {
			minSim = sim
		}
		meanSim += sim
		n++
	}
	if n > 0 {
		meanSim /= float64(n)
	} else {
		minSim = 0
	}
	ids := f.t.TokenIDs()
	jac := similarity.Jaccard(ids[p.A], ids[p.B])
	return append(append(dst, base...), minSim, meanSim, jac)
}

// Band derives the uncertainty band for a per-class risk: the margin
// interval outside which at most a bounded fraction of either training
// class falls on the machine's side. Hi is the accept threshold — at
// most risk·|neg| training negatives score above it, floored at
// marginGap so the accept side always stays on the positive slope even
// when the classes separate perfectly. Lo is the reject threshold — at
// most max(risk, RejectRisk)·|pos| training positives score below it
// (see RejectRisk for why the reject quantile is floored), clamped to
// leave at least a marginGap-wide crowd band below Hi. Larger risk
// never widens the band (more machine, fewer HITs, more model errors
// tolerated).
func (l *Learner) Band(risk float64) Band {
	if risk < 0 {
		risk = 0
	}
	if risk > MaxRisk {
		risk = MaxRisk
	}
	hi := marginGap
	if n := len(l.negMargins); n > 0 {
		k := int(risk * float64(n)) // negatives tolerated above hi
		// The risk quantile plus the observed extreme-tail spread: unseen
		// negatives overshoot the sampled maximum by about the width of
		// the sampled tail (see tailQuantile).
		spread := l.negMargins[n-1] - l.negMargins[int(tailQuantile*float64(n-1))]
		if v := l.negMargins[n-1-k] + spread; v > hi {
			hi = v
		}
	}
	lo := hi - marginGap
	if n := len(l.posMargins); n > 0 {
		k := int(max(risk, RejectRisk) * float64(n)) // positives tolerated below lo
		if v := l.posMargins[k]; v < lo {
			lo = v
		}
	}
	// A learner that has barely seen a crowd-judged negative has no
	// empirical reject boundary — its negatives are presumed, not
	// observed — so the band only accepts.
	return Band{Lo: lo, Hi: hi, NoReject: l.realNeg < minPerClass}
}

// Band is a margin interval of uncertainty: pairs scoring strictly
// above Hi are machine-accepted, strictly below Lo machine-rejected,
// and inside the band crowdsourced. Hi ≥ marginGap and Lo ≤ Hi −
// marginGap always hold; Lo may sit above zero — rejection is quantile
// logic over the training positives, not sign logic, because a weakly
// regularized model compresses the easy-negative mass near its bias.
// With NoReject set the reject side is disabled — everything at or
// below Hi is crowdsourced — because the learner's negatives are
// presumed (synthetic) rather than crowd-observed.
type Band struct {
	Lo, Hi   float64
	NoReject bool
}

// Decision is a routing verdict for one scored pair.
type Decision int

const (
	// DecideCrowd: the pair is inside the uncertainty band and must be
	// crowdsourced.
	DecideCrowd Decision = iota
	// DecideMatch: machine-accept, no HIT.
	DecideMatch
	// DecideNonMatch: machine-reject, no HIT.
	DecideNonMatch
)

// Decide routes a margin.
func (b Band) Decide(margin float64) Decision {
	switch {
	case margin > b.Hi:
		return DecideMatch
	case margin < b.Lo && !b.NoReject:
		return DecideNonMatch
	default:
		return DecideCrowd
	}
}

// Confidence maps a margin to a calibrated match probability: a
// sigmoid centered on the band's midpoint and scaled to its width, so
// machine-accepted margins always land above 0.5 and machine-rejected
// ones below — the posterior recorded on machine-resolved cache
// entries, rank-consistent with the margin ordering.
func (b Band) Confidence(margin float64) float64 {
	mid := (b.Hi + b.Lo) / 2
	width := b.Hi - b.Lo
	if width < 1e-9 {
		width = 1e-9
	}
	kappa := 4 / width
	return 1 / (1 + math.Exp(-kappa*(margin-mid)))
}

// AdaptRisk scales a base risk by the measured crowd pool accuracy:
// when the pool itself errs often, buying more HITs purchases less
// certainty, so the machine is allowed a proportionally looser band.
// poolAccuracy is the answer-weighted mean worker accuracy in [0, 1];
// values outside (0, 1) (including the "no evidence yet" zero) leave
// the base risk unchanged. The result is capped at MaxRisk.
func AdaptRisk(base, poolAccuracy float64) float64 {
	if poolAccuracy <= 0 || poolAccuracy >= 1 {
		return base
	}
	r := base * (1 + 2*(1-poolAccuracy))
	if r > MaxRisk {
		r = MaxRisk
	}
	return r
}
