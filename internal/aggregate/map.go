package aggregate

// MAPOptions configures DawidSkeneMAP. The defaults encode the two
// pieces of prior knowledge that plain Dawid–Skene EM lacks and whose
// absence causes the sparse-coverage degeneracy: crowd workers are
// better than random (the diagonal confusion prior), and a worker whose
// history covers only one class tells you nothing about the other (the
// pool-mean anchor).
type MAPOptions struct {
	// MaxIterations bounds the EM loop (default 100).
	MaxIterations int
	// Tolerance stops EM when the max posterior change falls below it
	// (default 1e-6).
	Tolerance float64
	// ConfAlpha and ConfBeta are the diagonal Beta(α, β) prior on every
	// confusion row: α pseudo-correct and β pseudo-incorrect answers per
	// worker per class. Defaults 4, 1 — a worker is presumed 80%
	// accurate on a class until their history says otherwise, so a class
	// never observed yields a row near (0.8, 0.2) instead of the
	// additive-smoothing (0.5, 0.5) that lets a high learned prevalence
	// flip unanimous rejections.
	ConfAlpha, ConfBeta float64
	// PriorAlpha and PriorBeta are the Beta prior on the match
	// prevalence (see DawidSkeneOptions). Defaults 2, 2: the MAP
	// estimate is pulled toward 1/2 by one pseudo-pair of each class and
	// can never reach the 0/1 boundary.
	PriorAlpha, PriorBeta float64
	// Anchor is the weight, in pseudo-answers per confusion row, with
	// which a worker who has not yet covered both classes is shrunk
	// toward the pool-mean confusion matrix. Default 8; a negative value
	// disables anchoring. Workers with both classes in their history are
	// left entirely to their own data; for a single-class worker the
	// anchor dominates the unseen row, so their implied accuracy tracks
	// the pool mean until real coverage arrives.
	Anchor float64
}

func (o *MAPOptions) defaults() {
	if o.MaxIterations <= 0 {
		o.MaxIterations = 100
	}
	if o.Tolerance <= 0 {
		o.Tolerance = 1e-6
	}
	if o.ConfAlpha <= 0 {
		o.ConfAlpha = 4
	}
	if o.ConfBeta <= 0 {
		o.ConfBeta = 1
	}
	if o.PriorAlpha <= 0 {
		o.PriorAlpha = 2
	}
	if o.PriorBeta <= 0 {
		o.PriorBeta = 2
	}
	if o.Anchor < 0 {
		o.Anchor = 0
	} else if o.Anchor == 0 {
		o.Anchor = 8
	}
}

// coverageUnit is the posterior mass (in pairs) a worker's history must
// assign to a class before the class counts as covered. One pair's worth
// is the smallest history that measures the class at all.
const coverageUnit = 1.0

// DawidSkeneMAP is Dawid–Skene EM with maximum-a-posteriori M-steps: the
// class prevalence carries a Beta prior, every confusion row carries an
// informative diagonal Beta prior, and workers who have not covered both
// classes are additionally anchored toward the pool-mean confusion row.
//
// It exists to fix a real degeneracy of the plain estimator (see the
// repository ROADMAP): with additive smoothing, a worker whose history
// covers only one class gets a near-uniform confusion row for the unseen
// class. Such rows make the worker's answers almost uninformative, so a
// high learned prevalence can override them — a pair unanimously judged
// a non-match by three single-class workers can come out with posterior
// 0.9, and transitive deduction then propagates the confident wrong
// verdict. Under the MAP estimate the unseen row stays near the prior
// diagonal (workers presumed better than random) and the worker is
// anchored to the pool, so unanimous verdicts are never inverted.
//
// In the dense-coverage limit — long per-worker histories over both
// classes, weak priors — the MAP estimate converges to plain DawidSkene:
// every prior term is O(1/n) against the data. The default aggregation
// path does not use this estimator; it ships as its own Aggregator,
// gated by TestDawidSkeneMAPNeverInvertsUnanimous.
func DawidSkeneMAP(answers []Answer, opts MAPOptions) Posterior {
	ix := indexAnswers(answers)
	ix.dawidSkeneMAP(opts)
	return ix.posterior()
}

// dawidSkeneMAP is DawidSkeneMAP's EM on the built index.
func (ix *answerIndex) dawidSkeneMAP(opts MAPOptions) {
	opts.defaults()
	if len(ix.pairs) == 0 {
		return
	}

	// The prevalence is the MAP value under Beta(αp, βp); the rows below
	// are the MAP confusion rows.
	ix.em(opts.MaxIterations, opts.Tolerance, opts.PriorAlpha, opts.PriorBeta, func(counts, conf []confusion) {
		// Pool-mean confusion rows: the whole crowd's expected counts
		// under the same diagonal prior — the anchor target for workers
		// whose own history cannot support a row of their own.
		var pool [2][2]float64
		for c := 0; c < 2; c++ {
			var tot [2]float64
			for w := range counts {
				tot[0] += counts[w][c][0]
				tot[1] += counts[w][c][1]
			}
			den := tot[0] + tot[1] + opts.ConfAlpha + opts.ConfBeta
			for l := 0; l < 2; l++ {
				pc := opts.ConfBeta
				if l == c {
					pc = opts.ConfAlpha
				}
				pool[c][l] = (tot[l] + pc) / den
			}
		}

		// Per-worker MAP confusion rows, anchored while underspecified: a
		// worker covers a class once their history carries at least one
		// pair's worth of posterior mass for it; until both classes are
		// covered, every row is shrunk toward the pool mean with Anchor
		// pseudo-answers.
		for w := range conf {
			covered := counts[w][0][0]+counts[w][0][1] >= coverageUnit &&
				counts[w][1][0]+counts[w][1][1] >= coverageUnit
			for c := 0; c < 2; c++ {
				den := counts[w][c][0] + counts[w][c][1] + opts.ConfAlpha + opts.ConfBeta
				for l := 0; l < 2; l++ {
					pc := opts.ConfBeta
					if l == c {
						pc = opts.ConfAlpha
					}
					num := counts[w][c][l] + pc
					if !covered && opts.Anchor > 0 {
						num += opts.Anchor * pool[c][l]
					}
					d := den
					if !covered && opts.Anchor > 0 {
						d += opts.Anchor
					}
					conf[w][c][l] = num / d
				}
			}
		}
	})
}
