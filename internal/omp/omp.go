// Package omp implements Orthogonal Matching Pursuit, the greedy sparse
// coding routine at the core of the ExD projection (Algorithm 1, step 3).
//
// Given a dictionary D (M×L, unit-norm columns) and a signal a, OMP greedily
// selects the atom most correlated with the current residual, re-solves the
// least-squares problem on the selected set, and repeats until the residual
// satisfies ‖r‖ ≤ tol·‖a‖ or a sparsity cap is hit.
//
// Two implementations are provided:
//
//   - Encode: the reference implementation that maintains the explicit
//     residual (matching Algorithm 1 line by line).
//   - BatchCoder: Batch-OMP with Cholesky-factor updates (the paper cites
//     Rubinstein et al. [32] and states the implementation uses it, §V-D).
//     It precomputes the dictionary Gram matrix G = DᵀD once and then codes
//     each column without ever forming the residual, which is the right
//     trade when many signals share one dictionary — exactly ExD's shape.
//
// Both produce identical supports and coefficients (up to floating-point
// noise); a property test in this package checks that.
package omp

import (
	"math"

	"extdict/internal/mat"
)

// Result is the sparse code of one signal.
type Result struct {
	// Idx holds the selected atom indices in selection order.
	Idx []int
	// Coef holds the least-squares coefficients aligned with Idx.
	Coef []float64
	// Resid2 is the squared norm of the final residual a - D·coef.
	Resid2 float64
	// Iters is the number of atoms selected (== len(Idx)).
	Iters int
	// Norm2 is the squared norm ‖a‖² of the coded signal, as the coder
	// computed it.
	Norm2 float64
}

// Encode runs reference OMP: it maintains an explicit residual vector and a
// growing Cholesky factorization of the active Gram matrix.
//
// tol is the relative tolerance: iteration stops once ‖r‖ ≤ tol·‖a‖.
// maxAtoms caps the support size; pass 0 for the default min(M, L).
// A zero signal yields an empty code.
func Encode(d *mat.Dense, a []float64, tol float64, maxAtoms int) Result {
	if len(a) != d.Rows {
		panic("omp: signal length does not match dictionary rows")
	}
	m, l := d.Rows, d.Cols
	if maxAtoms <= 0 || maxAtoms > min(m, l) {
		maxAtoms = min(m, l)
	}
	norm2a := mat.Dot(a, a)
	res := Result{Norm2: norm2a}
	if norm2a == 0 {
		return res
	}
	target2 := tol * tol * norm2a

	r := mat.CopyVec(a)
	chol := mat.NewCholesky(maxAtoms)
	selected := make(map[int]bool, maxAtoms)
	// Cross-correlations of selected atoms with all atoms are needed to
	// grow the Cholesky factor; recompute per step (reference code favors
	// clarity; BatchCoder is the fast path). All buffers are sized here so
	// the selection loop itself stays allocation-free.
	atomCol := make([]float64, m)
	corr := make([]float64, l)
	crossBuf := make([]float64, maxAtoms)
	rhs := make([]float64, 0, maxAtoms)
	res.Idx = make([]int, 0, maxAtoms)

	res.Resid2 = norm2a
	for len(res.Idx) < maxAtoms && res.Resid2 > target2 {
		// Step 3.1: k = argmax_j |d_j · r| over unselected atoms.
		d.MulVecT(r, corr)
		best, bestAbs := -1, 0.0
		for j := 0; j < l; j++ {
			if selected[j] {
				continue
			}
			if ca := math.Abs(corr[j]); ca > bestAbs {
				best, bestAbs = j, ca
			}
		}
		if best < 0 || bestAbs == 0 {
			break // residual orthogonal to every remaining atom
		}

		// Grow the Cholesky factor of D_φᵀD_φ with the new atom.
		d.Col(best, atomCol)
		k := len(res.Idx)
		cross := crossBuf[:k]
		for i, jj := range res.Idx {
			var s float64
			for row := 0; row < m; row++ {
				s += d.At(row, jj) * atomCol[row]
			}
			cross[i] = s
		}
		diag := mat.Dot(atomCol, atomCol)
		if err := chol.Append(cross, diag); err != nil {
			break // numerically dependent atom: cannot improve
		}
		selected[best] = true
		res.Idx = res.Idx[:k+1]
		res.Idx[k] = best
		rhs = rhs[:k+1]
		rhs[k] = mat.Dot(atomCol, a)

		// Step 3.3: y = D_φ⁺ a via the normal equations.
		res.Coef = mat.CopyVec(rhs)
		chol.SolveInPlace(res.Coef)

		// Step 3.4: r = a - D_φ y.
		copy(r, a)
		for i, jj := range res.Idx {
			ci := res.Coef[i]
			for row := 0; row < m; row++ {
				r[row] -= ci * d.At(row, jj)
			}
		}
		res.Resid2 = mat.Dot(r, r)
	}
	res.Iters = len(res.Idx)
	return res
}
