package solver

import (
	"math"

	"extdict/internal/cluster"
	"extdict/internal/dist"
	"extdict/internal/mat"
	"extdict/internal/rng"
)

// SVMOpts configures a soft-margin support vector machine trained in the
// dual — the last of the paper's §II-A target algorithms ("interior point
// methods for solving SVM [10]" — any dual solver iterates on the Gram
// matrix, which is exactly what the framework accelerates). This
// implementation uses projected gradient ascent on
//
//	W(α) = Σαᵢ - ½ Σᵢⱼ αᵢαⱼ yᵢyⱼ K(i,j),  0 ≤ αᵢ ≤ C,
//
// with the linear kernel K = AᵀA supplied by the distributed Gram operator.
type SVMOpts struct {
	// C is the soft-margin penalty (default 1).
	C float64
	// MaxIters caps gradient steps (default 500).
	MaxIters int
	// Tol stops iteration when the dual objective's relative improvement
	// falls below it for several consecutive steps (default 1e-7).
	Tol float64
	// Seed drives the spectral-norm estimation used for the step size.
	Seed uint64
}

func (o *SVMOpts) fill() {
	if o.C <= 0 {
		o.C = 1
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 500
	}
	if o.Tol <= 0 {
		o.Tol = 1e-7
	}
}

// SVMResult is a trained dual SVM.
type SVMResult struct {
	// Alpha holds the dual variables, one per training column.
	Alpha []float64
	// Margins holds the decision values K·(α∘y) for every training
	// column (the bias-free functional margin is yᵢ·Margins[i]).
	Margins []float64
	// SupportVectors is the number of strictly positive αᵢ.
	SupportVectors int
	// Objective is the final dual objective W(α).
	Objective float64
	// Iters counts gradient steps (plus the step-size estimation).
	Iters int
	// Converged reports whether Tol was met before MaxIters.
	Converged bool
	// Stats accumulates the distributed cost of every Gram product.
	Stats cluster.Stats
}

// SVM trains a bias-free soft-margin SVM on the Gram operator. labels must
// hold ±1 per column. The step size is 1/λ̂max(K), estimated with a few
// power iterations (charged to Stats like everything else).
func SVM(op dist.Operator, labels []float64, opts SVMOpts) SVMResult {
	opts.fill()
	n := op.Dim()
	if len(labels) != n {
		panic("solver: len(labels) != operator dim")
	}
	for _, y := range labels {
		if y != 1 && y != -1 {
			panic("solver: SVM labels must be ±1")
		}
	}
	res := SVMResult{Alpha: make([]float64, n)}

	// Estimate the spectral norm of K for the step size.
	r := rng.New(opts.Seed + 0x57a)
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	normalize(x, nil)
	gx := make([]float64, n)
	lmax := 1.0
	for it := 0; it < 12; it++ {
		st := op.Apply(x, gx)
		res.Stats.Accumulate(st)
		res.Iters++
		lmax = mat.FastNorm2(gx)
		if lmax == 0 {
			break
		}
		mat.ScaleTo(x, 1/lmax, gx)
	}
	if lmax <= 0 {
		lmax = 1
	}
	step := 1 / lmax

	alpha := res.Alpha
	v := make([]float64, n)  // α∘y
	kv := make([]float64, n) // K·(α∘y)
	grad := make([]float64, n)
	prev := math.Inf(-1)
	const patience = 5
	small := 0
	for it := 0; it < opts.MaxIters; it++ {
		for i := range v {
			v[i] = alpha[i] * labels[i]
		}
		st := op.Apply(v, kv)
		res.Stats.Accumulate(st)
		res.Iters++

		// Dual objective W(α) = Σα - ½ (α∘y)ᵀK(α∘y).
		obj := 0.0
		for _, a := range alpha {
			obj += a
		}
		obj -= 0.5 * mat.Dot(v, kv)
		res.Objective = obj

		if obj-prev >= 0 && obj-prev <= opts.Tol*math.Max(1, math.Abs(obj)) {
			small++
			if small >= patience {
				res.Converged = true
				break
			}
		} else {
			small = 0
		}
		prev = obj

		// ∇W = 1 - y ∘ K(α∘y); ascend and project onto the box [0, C].
		for i := range grad {
			grad[i] = 1 - labels[i]*kv[i]
			a := alpha[i] + step*grad[i]
			if a < 0 {
				a = 0
			} else if a > opts.C {
				a = opts.C
			}
			alpha[i] = a
		}
	}

	// Final margins and support-vector count.
	for i := range v {
		v[i] = alpha[i] * labels[i]
	}
	st := op.Apply(v, kv)
	res.Stats.Accumulate(st)
	res.Margins = mat.CopyVec(kv)
	for _, a := range alpha {
		if a > 1e-9 {
			res.SupportVectors++
		}
	}
	return res
}

// SVMWeights recovers the primal weight vector w = A·(α∘y) from the
// original data matrix, for classifying new M-dimensional samples with
// sign(wᵀx).
func SVMWeights(a *mat.Dense, labels []float64, res SVMResult) []float64 {
	v := make([]float64, len(res.Alpha))
	for i := range v {
		v[i] = res.Alpha[i] * labels[i]
	}
	return a.MulVec(v, nil)
}
