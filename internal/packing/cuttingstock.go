package packing

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Pattern describes the composition of one HIT in the paper's notation
// p = [a1, a2, ..., ak]: Count[j] is the number of packed components of
// size j+1 (so Count has length k). A pattern is feasible iff
// Σ (j+1)·Count[j] ≤ k (Section 5.3).
type Pattern struct {
	Count []int
}

// Slots returns the total number of vertices the pattern occupies.
func (p Pattern) Slots() int {
	s := 0
	for j, c := range p.Count {
		s += (j + 1) * c
	}
	return s
}

func (p Pattern) String() string { return fmt.Sprint(p.Count) }

func (p Pattern) clone() Pattern {
	c := make([]int, len(p.Count))
	copy(c, p.Count)
	return Pattern{Count: c}
}

func (p Pattern) key() string { return fmt.Sprint(p.Count) }

// Result is the outcome of a cutting-stock solve.
type Result struct {
	// Bins lists, for each emitted HIT, the multiset of component sizes
	// packed into it (sizes sorted descending).
	Bins [][]int
	// LowerBound is the LP relaxation bound ⌈z_LP⌉ (number of HITs cannot
	// be below this).
	LowerBound int
	// Optimal reports whether the solution provably attains LowerBound
	// or was certified optimal by branch-and-bound.
	Optimal bool
	// Iterations is the number of column-generation rounds performed.
	Iterations int
	// PatternsGenerated is the number of distinct patterns priced in.
	PatternsGenerated int
}

// NumBins returns the number of HITs used.
func (r Result) NumBins() int { return len(r.Bins) }

// Demands converts a slice of component sizes into the demand vector
// c[j] = number of components of size j+1 (Section 5.3's c_j). Sizes must
// lie in [1, k].
func Demands(sizes []int, k int) ([]int, error) {
	c := make([]int, k)
	for _, s := range sizes {
		if s < 1 || s > k {
			return nil, fmt.Errorf("packing: component size %d outside [1, %d]", s, k)
		}
		c[s-1]++
	}
	return c, nil
}

// FirstFitDecreasing packs the given component sizes into bins of capacity
// k with the classic FFD heuristic: sort sizes descending, place each into
// the first bin with room, opening a new bin when none fits. It returns
// the bins as size multisets.
func FirstFitDecreasing(sizes []int, k int) ([][]int, error) {
	sorted := make([]int, len(sizes))
	copy(sorted, sizes)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	var bins [][]int
	var residual []int
	for _, s := range sorted {
		if s < 1 || s > k {
			return nil, fmt.Errorf("packing: component size %d outside [1, %d]", s, k)
		}
		placed := false
		for i := range bins {
			if residual[i] >= s {
				bins[i] = append(bins[i], s)
				residual[i] -= s
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, []int{s})
			residual = append(residual, k-s)
		}
	}
	return bins, nil
}

// Solve packs the given component sizes into the minimum number of bins of
// capacity k using the paper's method: LP relaxation of the cutting-stock
// formulation solved by delayed column generation (pricing = unbounded
// knapsack over the LP duals), then branch-and-bound over the generated
// columns, cross-checked against round-down + FFD and pure FFD. The best
// integer solution found is returned; Optimal is set when it meets the LP
// lower bound or B&B proved optimality.
func Solve(sizes []int, k int) (Result, error) {
	if k < 1 {
		return Result{}, errors.New("packing: capacity must be >= 1")
	}
	if len(sizes) == 0 {
		return Result{Optimal: true}, nil
	}
	demands, err := Demands(sizes, k)
	if err != nil {
		return Result{}, err
	}

	cols, lpVals, iters, err := columnGeneration(demands, k)
	if err != nil {
		return Result{}, err
	}
	var lpObj float64
	for _, v := range lpVals {
		lpObj += v
	}
	lb := int(math.Ceil(lpObj - 1e-6))
	// The trivial volume bound also applies and guards LP numerical slack.
	vol := 0
	for _, s := range sizes {
		vol += s
	}
	if vb := (vol + k - 1) / k; vb > lb {
		lb = vb
	}

	// Upper bound 1: round the LP down and pack the residual demand by FFD.
	roundBins := roundDownAndRepair(cols, lpVals, demands, k)
	// Upper bound 2: pure FFD.
	ffdBins, err := FirstFitDecreasing(sizes, k)
	if err != nil {
		return Result{}, err
	}
	best := roundBins
	if len(ffdBins) < len(best) {
		best = ffdBins
	}

	optimal := len(best) == lb
	if !optimal {
		// Branch-and-bound over the generated columns for a certified
		// integer optimum of the restricted master problem.
		bb, proved := branchAndBound(cols, demands, k, len(best)+1)
		if bb != nil {
			bbBins := patternsToBins(cols, bb, demands)
			if len(bbBins) < len(best) {
				best = bbBins
			}
		}
		optimal = len(best) == lb || proved
	}

	return Result{
		Bins:              canonicalBins(best),
		LowerBound:        lb,
		Optimal:           optimal,
		Iterations:        iters,
		PatternsGenerated: len(cols),
	}, nil
}

// columnGeneration runs delayed column generation on the cutting-stock LP:
//
//	min Σ x_i  s.t.  Σ_i a_ij x_i ≥ c_j,  x ≥ 0.
//
// It solves the dual LP (max c·y s.t. each pattern's a·y ≤ 1, y ≥ 0) with
// the simplex method; the dual's variables y are exactly the size duals
// needed by the pricing knapsack, and the dual's row duals recover the
// primal pattern activities x.
func columnGeneration(demands []int, k int) (cols []Pattern, x []float64, iters int, err error) {
	// Initial columns: for each demanded size j, a homogeneous pattern with
	// ⌊k/j⌋ components of that size (always feasible, covers every row).
	seen := make(map[string]bool)
	for j := 1; j <= k; j++ {
		if demands[j-1] == 0 {
			continue
		}
		p := Pattern{Count: make([]int, k)}
		p.Count[j-1] = k / j
		cols = append(cols, p)
		seen[p.key()] = true
	}
	if len(cols) == 0 {
		return nil, nil, 0, nil
	}

	obj := make([]float64, k)
	for j := 0; j < k; j++ {
		obj[j] = float64(demands[j])
	}

	const maxRounds = 500
	for iters = 1; iters <= maxRounds; iters++ {
		a := make([][]float64, len(cols))
		rhs := make([]float64, len(cols))
		for i, p := range cols {
			row := make([]float64, k)
			for j := 0; j < k; j++ {
				row[j] = float64(p.Count[j])
			}
			a[i] = row
			rhs[i] = 1
		}
		res, serr := simplexMax(obj, a, rhs)
		if serr != nil {
			return nil, nil, iters, serr
		}
		x = res.duals

		// Pricing: most violated pattern under duals y = res.y.
		newPat, value := priceKnapsack(res.y, k)
		if value <= 1+1e-7 {
			return cols, x, iters, nil // LP optimal
		}
		key := newPat.key()
		if seen[key] {
			// Numerical stall: the "improving" pattern already exists.
			return cols, x, iters, nil
		}
		seen[key] = true
		cols = append(cols, newPat)
	}
	return cols, x, maxRounds, nil
}

// priceKnapsack solves the pricing problem: find a feasible pattern
// maximizing Σ y_j a_j subject to Σ j·a_j ≤ k (unbounded knapsack with
// item weights 1..k and values y). Returns the pattern and its value.
func priceKnapsack(y []float64, k int) (Pattern, float64) {
	best := make([]float64, k+1) // best[w]: max value with capacity w
	choice := make([]int, k+1)   // size taken at capacity w (0 = none)
	for w := 1; w <= k; w++ {
		bestVal := best[w-1]
		bestChoice := 0
		for j := 1; j <= w; j++ {
			v := best[w-j] + y[j-1]
			if v > bestVal+1e-12 {
				bestVal = v
				bestChoice = j
			}
		}
		best[w] = bestVal
		choice[w] = bestChoice
	}
	p := Pattern{Count: make([]int, k)}
	w := k
	for w > 0 {
		if choice[w] == 0 {
			w--
			continue
		}
		j := choice[w]
		p.Count[j-1]++
		w -= j
	}
	return p, best[k]
}

// roundDownAndRepair takes the fractional LP solution, keeps ⌊x_i⌋ copies
// of each pattern, and packs the uncovered residual demand with FFD.
func roundDownAndRepair(cols []Pattern, x []float64, demands []int, k int) [][]int {
	residual := make([]int, len(demands))
	copy(residual, demands)
	var bins [][]int
	for i, p := range cols {
		n := int(math.Floor(x[i] + 1e-9))
		if n <= 0 {
			continue
		}
		// Don't emit more copies of a pattern than the remaining demand can
		// use: cap by the max over sizes of ceil(residual_j / a_ij).
		useful := 0
		for j, a := range p.Count {
			if a > 0 && residual[j] > 0 {
				need := (residual[j] + a - 1) / a
				if need > useful {
					useful = need
				}
			}
		}
		if n > useful {
			n = useful
		}
		for c := 0; c < n; c++ {
			var bin []int
			for j, a := range p.Count {
				for t := 0; t < a && residual[j] > 0; t++ {
					bin = append(bin, j+1)
					residual[j]--
				}
			}
			if len(bin) > 0 {
				bins = append(bins, bin)
			}
		}
	}
	var leftover []int
	for j, r := range residual {
		for t := 0; t < r; t++ {
			leftover = append(leftover, j+1)
		}
	}
	if len(leftover) > 0 {
		extra, _ := FirstFitDecreasing(leftover, k) // sizes are valid by construction
		bins = append(bins, extra...)
	}
	return bins
}

// branchAndBound searches for an integer solution over the generated
// columns with cost < ub. It returns the pattern multiset of the best
// solution found (nil if none better than ub) and whether the search ran
// to completion (proving optimality over these columns).
func branchAndBound(cols []Pattern, demands []int, k int, ub int) (best map[int]int, proved bool) {
	// Order columns by slots used descending so dense patterns are tried
	// first — this finds good solutions early and tightens pruning.
	order := make([]int, len(cols))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return cols[order[a]].Slots() > cols[order[b]].Slots()
	})

	bestCost := ub
	cur := make(map[int]int)
	var nodes int
	const nodeLimit = 2_000_000
	proved = true

	var rec func(pos int, used int, residual []int)
	rec = func(pos int, used int, residual []int) {
		if nodes++; nodes > nodeLimit {
			proved = false
			return
		}
		// Residual volume lower bound.
		vol := 0
		covered := true
		for j, r := range residual {
			if r > 0 {
				covered = false
				vol += r * (j + 1)
			}
		}
		if covered {
			if used < bestCost {
				bestCost = used
				best = make(map[int]int, len(cur))
				for i, c := range cur {
					best[i] = c
				}
			}
			return
		}
		lb := used + (vol+k-1)/k
		if lb >= bestCost {
			return
		}
		if pos >= len(order) {
			return
		}
		i := order[pos]
		p := cols[i]
		// Max useful copies of pattern i for the residual demand.
		maxCopies := 0
		for j, a := range p.Count {
			if a > 0 && residual[j] > 0 {
				need := (residual[j] + a - 1) / a
				if need > maxCopies {
					maxCopies = need
				}
			}
		}
		if maxCopies+used >= bestCost {
			maxCopies = bestCost - used - 1
		}
		for c := maxCopies; c >= 0; c-- {
			next := make([]int, len(residual))
			copy(next, residual)
			for j, a := range p.Count {
				next[j] -= a * c
				if next[j] < 0 {
					next[j] = 0
				}
			}
			if c > 0 {
				cur[i] = c
			}
			rec(pos+1, used+c, next)
			delete(cur, i)
			if nodes > nodeLimit {
				return
			}
		}
	}
	rec(0, 0, demands)
	return best, proved
}

// patternsToBins expands a pattern multiset (column index → copies) into
// concrete bins, assigning real demand to pattern slots and dropping any
// slots beyond the true demand. Bins that end up covering no demand at all
// are dropped, so the returned count can be below the pattern-count sum.
func patternsToBins(cols []Pattern, patterns map[int]int, demands []int) [][]int {
	idxs := make([]int, 0, len(patterns))
	for i := range patterns {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	residual := make([]int, len(demands))
	copy(residual, demands)
	var bins [][]int
	for _, i := range idxs {
		p := cols[i]
		for c := 0; c < patterns[i]; c++ {
			var bin []int
			for j, a := range p.Count {
				for t := 0; t < a && residual[j] > 0; t++ {
					bin = append(bin, j+1)
					residual[j]--
				}
			}
			if len(bin) > 0 {
				bins = append(bins, bin)
			}
		}
	}
	return bins
}

// canonicalBins sorts sizes within each bin descending and bins by
// (descending fill, then the bins' printed forms) for deterministic
// output. Each bin's fill and printed form are computed once; bins tied on
// both are equal, so the order does not depend on the sort algorithm.
func canonicalBins(bins [][]int) [][]int {
	type keyed struct {
		bin  []int
		fill int
		key  string
	}
	ks := make([]keyed, len(bins))
	for i, b := range bins {
		c := slices.Clone(b)
		sort.Sort(sort.Reverse(sort.IntSlice(c)))
		ks[i] = keyed{c, sum(c), fmt.Sprint(c)}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		return cmp.Or(cmp.Compare(b.fill, a.fill), strings.Compare(a.key, b.key))
	})
	out := make([][]int, len(ks))
	for i, k := range ks {
		out[i] = k.bin
	}
	return out
}

func sum(xs []int) int {
	s := 0
	for _, x := range xs {
		s += x
	}
	return s
}
