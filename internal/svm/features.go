package svm

import (
	"github.com/crowder/crowder/internal/record"
	"github.com/crowder/crowder/internal/similarity"
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
