// Package omp implements Orthogonal Matching Pursuit, the greedy sparse
// coding routine at the core of the ExD projection (Algorithm 1, step 3).
//
// Given a dictionary D (M×L, unit-norm columns) and a signal a, OMP greedily
// selects the atom most correlated with the current residual, re-solves the
// least-squares problem on the selected set, and repeats until the residual
// satisfies ‖r‖ ≤ tol·‖a‖ or a sparsity cap is hit.
//
// BatchCoder implements Batch-OMP with Cholesky-factor updates (the paper
// cites Rubinstein et al. [32] and states the implementation uses it,
// §V-D). It precomputes the dictionary Gram matrix G = DᵀD once and then
// codes each column without ever forming the residual, which is the right
// trade when many signals share one dictionary — exactly ExD's shape. The
// package's tests keep the reference OMP that maintains the explicit
// residual (matching Algorithm 1 line by line) and check that both produce
// identical supports and coefficients (up to floating-point noise).
package omp

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
