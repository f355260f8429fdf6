package solver

import (
	"math"
	"sort"

	"extdict/internal/cluster"
	"extdict/internal/dist"
	"extdict/internal/mat"
	"extdict/internal/rng"
)

// SparsePCAOpts configures sparse principal component extraction — one of
// the Power-method applications the paper lists (§II-A, "sparse PCA [13]").
type SparsePCAOpts struct {
	// Components is the number of sparse components to extract.
	Components int
	// Cardinality is the maximum number of nonzero loadings per component.
	Cardinality int
	// MaxIters caps iterations per component (default 300).
	MaxIters int
	// Tol stops a component when its explained variance stabilizes to this
	// relative change (default 1e-8).
	Tol float64
	// Seed initializes the start vectors.
	Seed uint64
}

func (o *SparsePCAOpts) fill(n int) {
	if o.Components <= 0 {
		o.Components = 1
	}
	if o.Cardinality <= 0 || o.Cardinality > n {
		o.Cardinality = n
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 300
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
}

// SparsePCAResult holds the extracted sparse components.
type SparsePCAResult struct {
	// Variances holds each component's explained variance xᵀGx (with
	// ‖x‖ = 1), in extraction order.
	Variances []float64
	// Components has one column per sparse loading vector (N×k), each with
	// at most Cardinality nonzeros and unit norm.
	Components *mat.Dense
	// Iters is the total iteration count.
	Iters int
	// Stats accumulates the distributed cost of every iteration.
	Stats cluster.Stats
}

// SparsePCA runs the truncated power method (Yuan & Zhang 2013): a power
// iteration whose iterate is hard-thresholded to the top-k entries each
// step, yielding interpretable sparse loadings. Deflation between
// components matches the dense Power method.
func SparsePCA(op dist.Operator, opts SparsePCAOpts) SparsePCAResult {
	n := op.Dim()
	opts.fill(n)
	res := SparsePCAResult{Components: mat.NewDense(n, opts.Components)}
	r := rng.New(opts.Seed)

	found := make([][]float64, 0, opts.Components)
	x := make([]float64, n)
	gx := make([]float64, n)
	for comp := 0; comp < opts.Components; comp++ {
		for i := range x {
			x[i] = r.NormFloat64()
		}
		normalize(x, found)
		// Warm start: a few dense power iterations align x with the
		// leading (deflated) eigenvector before truncation kicks in —
		// truncated power iteration from a cold random start can lock
		// onto the support of a minor component.
		for warm := 0; warm < 5; warm++ {
			st := op.Apply(x, gx)
			res.Stats.Accumulate(st)
			res.Iters++
			if n := deflate(gx, found, nil); n > 0 {
				mat.ScaleTo(x, 1/n, gx)
			}
		}
		truncate(x, opts.Cardinality)
		normalize(x, nil)

		variance, prev := 0.0, math.Inf(1)
		for it := 0; it < opts.MaxIters; it++ {
			st := op.Apply(x, gx)
			res.Stats.Accumulate(st)
			res.Iters++

			// Explained variance of the CURRENT iterate: xᵀGx, G deflated.
			variance = deflate(gx, found, x)

			truncate(gx, opts.Cardinality)
			nrm := mat.FastNorm2(gx)
			if nrm == 0 {
				break
			}
			mat.ScaleTo(x, 1/nrm, gx)
			if math.Abs(variance-prev) <= opts.Tol*math.Abs(variance) {
				break
			}
			prev = variance
		}
		vec := mat.CopyVec(x)
		found = append(found, vec)
		res.Variances = append(res.Variances, variance)
		res.Components.SetCol(comp, vec)
	}
	return res
}

// truncate zeroes all but the k largest-magnitude entries of v in place.
func truncate(v []float64, k int) {
	if k >= len(v) {
		return
	}
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return math.Abs(v[idx[a]]) > math.Abs(v[idx[b]])
	})
	for _, i := range idx[k:] {
		v[i] = 0
	}
}
