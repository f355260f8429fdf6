// Package transform implements the data-projection baselines the paper
// compares ExD against (§III, §VIII-B3): Random Column Subset Selection
// (RCSS), oASIS adaptive column sampling, and RankMap's minimal sparsifying
// basis. All expose one Method interface so the evaluation harness (and any
// user of the public API) can swap projections inside the ExtDict framework,
// mirroring the paper's claim that "the above dimensionality reduction
// methods can replace ExD within our framework".
//
// The three baselines differ from ExD along two axes:
//
//   - Basis selection: RCSS/RankMap pick random columns until the error
//     criterion is met (the smallest such basis); oASIS greedily picks the
//     column with the largest residual energy, reaching the criterion with
//     fewer columns.
//   - Coefficients: RCSS and oASIS form the dense C = D⁺A; RankMap codes C
//     sparsely with OMP but is pinned to the minimal basis. Only ExD
//     exposes dictionary size as a platform-tunable knob.
package transform

import (
	"fmt"

	"extdict/internal/mat"
	"extdict/internal/rng"
	"extdict/internal/sparse"
)

// Result is a fitted projection A ≈ D·C.
type Result struct {
	// Name identifies the producing method.
	Name string
	// D is the M×L basis (dictionary).
	D *mat.Dense
	// C is the L×N coefficient matrix. Methods that produce dense
	// coefficients still return CSC storage (with every entry present)
	// and set DenseC so memory accounting can charge L·N words instead of
	// 2·nnz.
	C *sparse.CSC
	// DenseC records that C is structurally dense.
	DenseC bool
}

// MemoryWords returns the words needed to store the projection, matching
// Table III's accounting: D always costs M·L; C costs L·N for dense storage
// and 2·nnz + N + 1 for sparse storage (value + row index per entry, plus
// column pointers).
func (r *Result) MemoryWords() int {
	d := r.D.Rows * r.D.Cols
	if r.DenseC {
		return d + r.C.Rows*r.C.Cols
	}
	return d + 2*r.C.NNZ() + r.C.Cols + 1
}

// Method is a data projection algorithm.
type Method interface {
	// Name returns the method's display name.
	Name() string
	// Fit projects the column-normalized matrix a within relative error
	// eps, drawing any randomness from r.
	Fit(a *mat.Dense, eps float64, r *rng.RNG) (*Result, error)
}

// selector grows a column basis until the projection residual satisfies
// ‖A - proj(A)‖_F ≤ eps·‖A‖_F. pickNext chooses the next candidate column
// given the residual energies; it returns -1 to stop early.
//
// It maintains an orthonormal basis Q of the selected columns and the
// residual energy of every column, so each selection step costs O(M·N):
// linear in N, as both RCSS and oASIS require for scalability.
func selectColumns(a *mat.Dense, eps float64, pickNext func(res2 []float64, step int) int) []int {
	m, n := a.Rows, a.Cols
	res2 := make([]float64, n)
	var total float64
	col := make([]float64, m)
	for j := 0; j < n; j++ {
		a.Col(j, col)
		res2[j] = mat.Dot(col, col)
		total += res2[j]
	}
	target := eps * eps * total

	var q []([]float64) // orthonormal basis vectors
	var picked []int
	remaining := total
	maxL := min(m+16, n) // beyond ~M columns the residual is numerically zero
	proj := make([]float64, m)
	for remaining > target && len(picked) < maxL {
		k := pickNext(res2, len(picked))
		if k < 0 {
			break
		}
		// Orthogonalize column k against the current basis (two passes of
		// modified Gram-Schmidt for stability).
		a.Col(k, proj)
		for pass := 0; pass < 2; pass++ {
			for _, qv := range q {
				d := mat.Dot(qv, proj)
				mat.Axpy(-d, qv, proj)
			}
		}
		nrm := mat.Norm2(proj)
		if nrm < 1e-10 {
			res2[k] = 0 // numerically in span: never pick again
			continue
		}
		mat.ScaleVec(1/nrm, proj)
		qNew := mat.CopyVec(proj)
		q = append(q, qNew)
		picked = append(picked, k)

		// Residual energy update: res2[j] -= (qNew·a_j)².
		dots := a.MulVecT(qNew, nil)
		remaining = 0
		for j := 0; j < n; j++ {
			res2[j] -= dots[j] * dots[j]
			if res2[j] < 0 {
				res2[j] = 0
			}
			remaining += res2[j]
		}
	}
	return picked
}

// leastSquaresC computes the dense coefficient matrix C = D⁺·A (the
// projection used by RCSS and oASIS), returned in CSC storage with every
// entry present.
func leastSquaresC(d *mat.Dense, a *mat.Dense) (*sparse.CSC, error) {
	l := d.Cols
	g := mat.ATA(d)
	// Tiny ridge keeps the normal equations factorizable when atoms are
	// nearly dependent; the perturbation is far below any eps in use.
	for i := 0; i < l; i++ {
		g.Set(i, i, g.At(i, i)+1e-12)
	}
	ch := mat.NewCholesky(l)
	if err := ch.Factorize(g); err != nil {
		return nil, fmt.Errorf("transform: basis Gram matrix not factorizable: %w", err)
	}
	b := sparse.NewBuilder(l)
	col := make([]float64, d.Rows)
	idx := make([]int, l)
	for i := range idx {
		idx[i] = i
	}
	for j := 0; j < a.Cols; j++ {
		a.Col(j, col)
		c := d.MulVecT(col, nil)
		ch.SolveInPlace(c)
		b.AppendColumn(idx, c)
	}
	return b.Build(), nil
}
