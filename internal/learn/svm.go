package learn

import (
	"errors"
	"math"
	"math/rand"

	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/similarity"
)

// The learning-based baseline of Section 7.3: record pairs are
// represented as similarity feature vectors (edit distance and cosine
// similarity per attribute, following Köpcke et al.) and classified by
// a linear soft-margin SVM trained with the Pegasos stochastic
// sub-gradient algorithm. The router's Learner is this SVM over an
// extended vector; the experiments use it bare.

// Pegasos hyperparameters: the regularization strength λ and the number
// of passes over the training set.
const (
	svmLambda = 1e-4
	svmEpochs = 50
)

// FeatureVector computes the Section 7.3 feature representation of a
// record pair: for each listed attribute, the normalized edit-distance
// similarity and the cosine similarity of the attribute values. With the
// Restaurant dataset's four attributes this yields the paper's
// 8-dimensional vector; with Product's name attribute only, the
// 2-dimensional one.
func FeatureVector(t *record.Table, p record.Pair, attrs []int) []float64 {
	a, b := t.Get(p.A), t.Get(p.B)
	out := make([]float64, 0, 2*len(attrs))
	for _, ai := range attrs {
		va := record.Normalize(a.Attr(ai))
		vb := record.Normalize(b.Attr(ai))
		out = append(out, similarity.LevenshteinSim(va, vb))
		out = append(out, similarity.CosineStrings(va, vb))
	}
	return out
}

// Example is a labelled training instance. Label is +1 for a matching pair
// and −1 for a non-matching pair.
type Example struct {
	X     []float64
	Label float64
}

// SVM is a trained linear SVM: Score(x) = W·x + B.
type SVM struct {
	W []float64
	B float64
}

// TrainSVM fits a linear SVM with the Pegasos algorithm: at step t it
// samples an example, uses learning rate 1/(λt), applies the hinge-loss
// sub-gradient, shrinks the weights and projects them onto the 1/√λ
// ball. The seed drives the stochastic example order, so training is
// deterministic in (examples, seed).
//
// The minority class's loss is scaled up by the class ratio,
// compensating for heavily skewed ER training sets where non-matches
// dominate. The bias is learned as an augmented constant-1 feature so it
// shares the regularization and projection — leaving it free lets the
// enormous early learning rates (η = 1/(λt) with t small) blow it up
// irrecoverably on class-imbalanced data.
func TrainSVM(examples []Example, seed int64) (*SVM, error) {
	if len(examples) == 0 {
		return nil, errors.New("learn: no training examples")
	}
	r := rows{dim: len(examples[0].X)}
	for _, e := range examples {
		if len(e.X) != r.dim {
			return nil, errors.New("learn: inconsistent feature dimensions")
		}
		if e.Label != 1 && e.Label != -1 {
			return nil, errors.New("learn: labels must be +1 or -1")
		}
		r.x = append(r.x, e.X)
		r.label(e.Label == 1)
	}
	w := make([]float64, r.dim+1)
	r.pegasos(w, 0, seed, svmEpochs)
	return &SVM{W: w[:r.dim], B: w[r.dim]}, nil
}

// rows is a Pegasos training set: views of the feature vectors, which
// the trainer only reads, each row with its ±1 label and its class
// weight.
type rows struct {
	dim      int
	x        [][]float64
	y, cw    []float64
	pos, neg int
}

// label appends the label of the row last appended to x.
func (r *rows) label(match bool) {
	y := -1.0
	if match {
		y, r.pos = 1, r.pos+1
	} else {
		r.neg++
	}
	r.y = append(r.y, y)
}

// row returns example i's feature vector.
func (r *rows) row(i int) []float64 { return r.x[i] }

// pegasos runs epochs passes of Pegasos over the rows, updating w — the
// weights with the bias in the last slot — in place, and returns the
// step count: t steps ran before this call, and the learning rate
// continues from there. Each epoch's order is the permutation rand.Perm
// would draw from the seeded source, filled into one reused buffer by
// the same Intn calls, so the random stream is rand.Perm's.
func (r *rows) pegasos(w []float64, t int, seed int64, epochs int) int {
	var posW, negW float64 = 1, 1
	if r.pos > 0 && r.neg > 0 {
		if r.neg > r.pos {
			posW = float64(r.neg) / float64(r.pos)
		} else {
			negW = float64(r.pos) / float64(r.neg)
		}
	}
	r.cw = r.cw[:0]
	for _, y := range r.y {
		cw := posW
		if y < 0 {
			cw = negW
		}
		r.cw = append(r.cw, cw)
	}

	rng := rand.New(rand.NewSource(seed))
	dim := r.dim
	bound := 1 / math.Sqrt(svmLambda)
	perm := make([]int, len(r.y))
	for epoch := 0; epoch < epochs; epoch++ {
		for i := range perm {
			j := rng.Intn(i + 1)
			perm[i] = perm[j]
			perm[j] = i
		}
		for _, idx := range perm {
			t++
			x, y := r.row(idx), r.y[idx]
			eta := 1 / (svmLambda * float64(t))
			margin := y * (dot(w[:dim], x) + w[dim])
			// Regularization shrink (applies to the bias slot too), the
			// hinge step, and the squared norm for the projection, in one
			// pass. The explicit conversions round each shrunk weight
			// before the step adds to it, so no platform fuses the two
			// into one multiply-add: the result is bit for bit the
			// shrink-then-step-then-norm sequence of three passes.
			shrink := 1 - eta*svmLambda
			if shrink < 0 {
				shrink = 0
			}
			var sq float64
			if margin < 1 {
				step := eta * r.cw[idx] * y
				for j, xj := range x {
					v := float64(w[j]*shrink) + step*xj
					w[j] = v
					sq += v * v
				}
				v := float64(w[dim]*shrink) + step
				w[dim] = v
				sq += v * v
			} else {
				for j := range w {
					v := float64(w[j] * shrink)
					w[j] = v
					sq += v * v
				}
			}
			// Projection onto the 1/sqrt(λ) ball (Pegasos).
			if norm := math.Sqrt(sq); norm > bound {
				scale := bound / norm
				for j := range w {
					w[j] *= scale
				}
			}
		}
	}
	return t
}

// Score returns the signed margin W·x + B; larger means more likely a
// match. The magnitude orders pairs for precision-recall curves.
func (m *SVM) Score(x []float64) float64 { return dot(m.W, x) + m.B }

func dot(a, b []float64) float64 {
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}
