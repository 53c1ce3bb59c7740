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
	dim := len(examples[0].X)
	pos, neg := 0, 0
	for _, e := range examples {
		if len(e.X) != dim {
			return nil, errors.New("learn: inconsistent feature dimensions")
		}
		switch e.Label {
		case 1:
			pos++
		case -1:
			neg++
		default:
			return nil, errors.New("learn: labels must be +1 or -1")
		}
	}

	var posW, negW float64 = 1, 1
	if pos > 0 && neg > 0 {
		if neg > pos {
			posW = float64(neg) / float64(pos)
		} else {
			negW = float64(pos) / float64(neg)
		}
	}

	rng := rand.New(rand.NewSource(seed))
	// w has dim weights plus the bias in the last slot.
	w := make([]float64, dim+1)
	bound := 1 / math.Sqrt(svmLambda)
	t := 0
	for epoch := 0; epoch < svmEpochs; epoch++ {
		perm := rng.Perm(len(examples))
		for _, idx := range perm {
			t++
			e := examples[idx]
			eta := 1 / (svmLambda * float64(t))
			margin := e.Label * (dot(w[:dim], e.X) + w[dim])
			// Regularization shrink (applies to the bias slot too).
			shrink := 1 - eta*svmLambda
			if shrink < 0 {
				shrink = 0
			}
			for j := range w {
				w[j] *= shrink
			}
			if margin < 1 {
				cw := posW
				if e.Label < 0 {
					cw = negW
				}
				step := eta * cw * e.Label
				for j := 0; j < dim; j++ {
					w[j] += step * e.X[j]
				}
				w[dim] += step
			}
			// Projection onto the 1/sqrt(λ) ball (Pegasos).
			norm := math.Sqrt(dot(w, w))
			if norm > bound {
				scale := bound / norm
				for j := range w {
					w[j] *= scale
				}
			}
		}
	}
	return &SVM{W: w[:dim], B: w[dim]}, nil
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
