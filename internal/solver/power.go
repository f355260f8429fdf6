package solver

import (
	"math"

	"extdict/internal/cluster"
	"extdict/internal/dist"
	"extdict/internal/mat"
	"extdict/internal/rng"
)

// PowerOpts configures a Power-method PCA run on the Gram matrix G = AᵀA.
type PowerOpts struct {
	// Components is the number of leading eigenpairs to extract
	// (paper experiments: 10).
	Components int
	// MaxIters caps iterations per component (default 300).
	MaxIters int
	// Tol stops a component when the eigenvalue estimate's relative
	// change falls below it (default 1e-8).
	Tol float64
	// Seed initializes the start vectors.
	Seed uint64
	// CheckpointEvery takes an in-memory snapshot of the solver state
	// through Sink every k inner iterations, plus one at every component
	// completion (0 disables checkpointing).
	CheckpointEvery int
	// Sink receives each snapshot. The pointed-to checkpoint and its
	// buffers are owned by the solver and overwritten at the next
	// snapshot; consumers needing longer-lived copies must clone.
	Sink func(*Checkpoint)
	// Resume restores the solver state (completed components, the
	// mid-component iterate, iteration counters) from a snapshot
	// previously emitted via Sink and continues from there. The RNG
	// stream is advanced past the draws the interrupted run already
	// consumed, so later components start exactly where an uninterrupted
	// run would have.
	Resume *Checkpoint
}

func (o *PowerOpts) fill() {
	if o.Components <= 0 {
		o.Components = 1
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 300
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
}

// PowerResult holds the extracted spectrum of G = AᵀA.
type PowerResult struct {
	// Eigenvalues of the Gram matrix, in decreasing order (these are the
	// squared singular values of A).
	Eigenvalues []float64
	// Eigenvectors has one column per eigenvalue (N×k), orthonormal.
	Eigenvectors *mat.Dense
	// Iters is the total iteration count across all components.
	Iters int
	// Stats accumulates the distributed cost of every iteration.
	Stats cluster.Stats
}

// PowerMethod extracts the leading eigenpairs of the Gram matrix behind op
// with the classic iteration x ← G·x/‖G·x‖ (§VIII-A). After a component
// converges, its contribution is deflated from the operator output
// (equivalent to the paper's "subtract the found content from the data")
// and the iteration restarts for the next component.
func PowerMethod(op dist.Operator, opts PowerOpts) PowerResult {
	opts.fill()
	n := op.Dim()
	res := PowerResult{Eigenvectors: mat.NewDense(n, opts.Components)}
	r := rng.New(opts.Seed)

	found := make([][]float64, 0, opts.Components)
	vals := make([]float64, 0, opts.Components)

	x := make([]float64, n)
	gx := make([]float64, n)

	startComp, startIter := 0, 0
	if opts.Resume != nil {
		ck := opts.Resume
		if len(ck.X) != n || ck.Comp > opts.Components || len(ck.Found) < ck.Comp || len(ck.Vals) < ck.Comp {
			panic("solver: resume checkpoint does not match this solve")
		}
		startComp, startIter = ck.Comp, ck.Iter
		for i := 0; i < startComp; i++ {
			vec := mat.CopyVec(ck.Found[i])
			found = append(found, vec)
			vals = append(vals, ck.Vals[i])
			res.Eigenvalues = append(res.Eigenvalues, ck.Vals[i])
			res.Eigenvectors.SetCol(i, vec)
		}
		res.Iters = ck.TotalIters
		if startIter > 0 {
			copy(x, ck.X)
		}
		// Keep the RNG stream aligned with an uninterrupted run: burn the
		// start-vector draws the interrupted run already consumed (one
		// n-draw per component started), so every later component begins
		// from the very same start vector it would have without the fault.
		burn := startComp
		if startIter > 0 {
			burn++
		}
		for b := 0; b < burn; b++ {
			for i := 0; i < n; i++ {
				r.NormFloat64()
			}
		}
	}

	// The snapshot buffer is hoisted out of the iteration loops: a
	// checkpoint is one copy into preallocated storage plus slice-header
	// bookkeeping, never an allocation.
	checkpointing := opts.CheckpointEvery > 0 && opts.Sink != nil
	var ckpt Checkpoint
	if checkpointing {
		ckpt = Checkpoint{X: make([]float64, n)}
	}

	for comp := startComp; comp < opts.Components; comp++ {
		if comp == startComp && startIter > 0 {
			// Mid-component resume: x was restored from the checkpoint.
		} else {
			// Random start, orthogonal to previously found components.
			for i := range x {
				x[i] = r.NormFloat64()
			}
			normalize(x, found)
		}

		lambda, prev := 0.0, math.Inf(1)
		for it := startIter; it < opts.MaxIters; it++ {
			st := op.Apply(x, gx)
			res.Stats.Accumulate(st)
			res.Iters++

			// Remove converged components from the operator action: for an
			// exact eigenpair (λ_i, v_i), projecting G·x off v_i subtracts
			// λ_i·(v_iᵀx)·v_i — the paper's "subtract the found content".
			lambda = deflate(gx, found, nil)
			if lambda == 0 {
				break // null space reached: remaining eigenvalues are 0
			}
			// x ← G·x/λ as one reciprocal and a multiply per entry: one
			// rounding more than a division per entry, in a fraction of
			// its time.
			mat.ScaleTo(x, 1/lambda, gx)
			if checkpointing && (it+1)%opts.CheckpointEvery == 0 {
				copy(ckpt.X, x)
				ckpt.Comp, ckpt.Iter = comp, it+1
				ckpt.Found, ckpt.Vals = found, vals
				ckpt.TotalIters = res.Iters
				opts.Sink(&ckpt)
			}
			if math.Abs(lambda-prev) <= opts.Tol*lambda {
				break
			}
			prev = lambda
		}
		startIter = 0
		// Re-orthogonalize against earlier components to stop drift.
		normalize(x, found)

		vec := mat.CopyVec(x)
		found = append(found, vec)
		vals = append(vals, lambda)
		res.Eigenvalues = append(res.Eigenvalues, lambda)
		res.Eigenvectors.SetCol(comp, vec)

		if checkpointing {
			// Component boundary: Iter 0 means "next component not yet
			// started", so a resume draws a fresh start vector.
			ckpt.Comp, ckpt.Iter = comp+1, 0
			ckpt.Found, ckpt.Vals = found, vals
			ckpt.TotalIters = res.Iters
			opts.Sink(&ckpt)
		}
	}
	return res
}

// deflate projects v off every found component in turn, v ← v − (cᵀv)·c
// with each dot taken on the v the previous projection left, and returns
// the deflated v's dot with w, or its norm (mat.FastNorm2) when w is nil.
// Each pass over v finishes one projection and takes the next dot, or the
// closing dot or norm, from the entries it has just written:
// len(comps)+1 passes where projecting and then measuring take
// 2·len(comps)+1, with the same bits.
func deflate(v []float64, comps [][]float64, w []float64) float64 {
	if len(comps) == 0 {
		if w == nil {
			return mat.FastNorm2(v)
		}
		return mat.Dot(w, v)
	}
	d := mat.Dot(comps[0], v)
	for i := 1; i < len(comps); i++ {
		d = mat.AxpyDot(-d, comps[i-1], v, comps[i])
	}
	last := comps[len(comps)-1]
	if w == nil {
		return mat.AxpyNorm2(-d, last, v)
	}
	return mat.AxpyDot(-d, last, v, w)
}

// normalize projects v off every found component and scales it to unit
// norm; a v that deflates to zero stays zero.
func normalize(v []float64, comps [][]float64) {
	if n := deflate(v, comps, nil); n > 0 {
		mat.ScaleVec(1/n, v)
	}
}
