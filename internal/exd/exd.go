// Package exd implements the Extensible Dictionary (ExD) projection —
// Algorithm 1 of the paper and the primary contribution of ExtDict.
//
// ExD factors a column-normalized data matrix A (M×N) into a dictionary D
// (M×L), formed by sampling L columns of A uniformly at random, and a sparse
// coefficient matrix C (L×N) found column-by-column with Orthogonal Matching
// Pursuit so that ‖A - D·C‖_F ≤ ε‖A‖_F.
//
// The "extensible" degree of freedom is L: enlarging the dictionary makes
// each column's code sparser (the union-of-subspaces argument of §V-B),
// trading communication cost (∝ min(M, L)) against computation and memory
// (∝ nnz(C)). The tune package searches this trade-off against a platform
// cost model.
package exd

import (
	"fmt"
	"math"

	"extdict/internal/mat"
	"extdict/internal/omp"
	"extdict/internal/rng"
	"extdict/internal/sparse"
)

// Params configures one ExD projection.
type Params struct {
	// L is the dictionary size — the number of columns of A sampled into D.
	L int
	// Epsilon is the relative transformation error tolerance ε of Eq. 1:
	// each column is coded until ‖a_j - D·c_j‖ ≤ ε‖a_j‖.
	Epsilon float64
	// MaxAtoms caps the per-column support size; 0 means min(M, L).
	MaxAtoms int
	// Workers is the number of parallel sparse-coding goroutines
	// (Algorithm 1 distributes step 3 over processors); 0 means 1.
	Workers int
	// Seed drives the random column sub-sampling.
	Seed uint64
}

func (p Params) validate(m, n int) error {
	if p.L < 1 || p.L > n {
		return fmt.Errorf("exd: dictionary size L=%d outside [1, N=%d]", p.L, n)
	}
	if p.Epsilon < 0 || p.Epsilon >= 1 {
		return fmt.Errorf("exd: epsilon %v outside [0, 1)", p.Epsilon)
	}
	if p.MaxAtoms < 0 {
		return fmt.Errorf("exd: negative MaxAtoms")
	}
	return nil
}

// Transform is a fitted ExD projection A ≈ D·C.
type Transform struct {
	// D is the M×L dictionary (selected columns of A).
	D *mat.Dense
	// C is the L×N sparse coefficient matrix.
	C *sparse.CSC
	// DictIdx records which columns of A were sampled into D; -1 entries
	// mark atoms appended by evolving-data updates (they come from A_new,
	// not the original A).
	DictIdx []int
	// OMPIters is the total number of OMP iterations spent coding C —
	// the dominant preprocessing cost (Table II).
	OMPIters int
	// Params echoes the fitting parameters.
	Params Params
}

// Fit runs Algorithm 1 on a column-normalized data matrix.
func Fit(a *mat.Dense, p Params) (*Transform, error) {
	if err := p.validate(a.Rows, a.Cols); err != nil {
		return nil, err
	}
	workers := p.Workers
	if workers < 1 {
		workers = 1
	}
	// Step 0-1: sample L column indices uniformly at random; load D.
	idx, d := Draw(a, p.L, p.Seed)

	// Steps 2-3: every processor codes its block of columns with OMP.
	coder := omp.NewBatchCoder(d)
	c, iters := coder.EncodeColumns(a, p.Epsilon, p.MaxAtoms, workers)

	return &Transform{D: d, C: c, DictIdx: idx, OMPIters: iters, Params: p}, nil
}

// Draw samples the dictionary Fit uses for size l and seed: l column indices
// of a drawn uniformly at random, in increasing order, and the M×l matrix of
// those columns. Anyone who codes A against Draw's dictionary in pieces gets
// the codes Fit would, column for column.
func Draw(a *mat.Dense, l int, seed uint64) (idx []int, d *mat.Dense) {
	idx = rng.New(seed).Subset(a.Cols, l)
	return idx, a.ColSlice(idx)
}

// L returns the current dictionary size (it grows under evolving-data
// updates).
func (t *Transform) L() int { return t.D.Cols }

// N returns the number of coded data columns.
func (t *Transform) N() int { return t.C.Cols }

// Alpha returns the density measure α = nnz(C)/N — the average number of
// nonzeros per coefficient column (Eq. 5).
func (t *Transform) Alpha() float64 {
	if t.C.Cols == 0 {
		return 0
	}
	return float64(t.C.NNZ()) / float64(t.C.Cols)
}

// relErrorWords bounds RelError's scratch: the ring of blocks it rebuilds
// columns into fills at most this many float64s per buffer (a block holds
// at least one column), whatever the worker count.
const relErrorWords = 1 << 16

// relErrorRing is the number of blocks in RelError's ring: how far the
// rebuilding may run ahead of the sum.
const relErrorRing = 8

// relErrorBlock is the number of columns of M rows in one block of
// RelError's ring.
func relErrorBlock(m, n int) int { return max(1, min(n, relErrorWords/relErrorRing/m)) }

// RelError returns the achieved relative transformation error
// ‖A - D·C‖_F / ‖A‖_F against the given data matrix, computed column by
// column in O(M·nnz(C)) without forming D·C densely.
//
// The two sums are added serially in (column, row) order, term by term as
// a plain loop over A's columns would: fig4's pinned errors and every ε
// verdict depend on that order. Only the terms are computed in parallel,
// block by block through mat.Pipeline: the caller and the pool rebuild
// blocks of columns into a ring of relErrorRing buffers — reading A row by
// row, and each column of D·C as Axpys over rows of Dᵀ, which are
// element-wise and so exact — while the caller adds each finished block's
// terms in order, so the sum of block b overlaps the rebuilding of the
// blocks after it.
func (t *Transform) RelError(a *mat.Dense) float64 {
	if a.Rows != t.D.Rows || a.Cols != t.C.Cols {
		panic("exd: RelError shape mismatch")
	}
	m := a.Rows
	if m == 0 {
		return 0
	}
	dt := t.D.T()
	block := relErrorBlock(m, a.Cols)
	// Block b's slot in the ring holds column j0+k's terms (a_ij - (DC)_ij)²
	// at dev[k·M+i] and a_ij² at sq[k·M+i].
	devRing := make([]float64, relErrorRing*block*m)
	sqRing := make([]float64, relErrorRing*block*m)
	slot := func(b int) (j0, n int, dev, sq []float64) {
		j0, n = b*block, min(block, a.Cols-b*block)
		off := b % relErrorRing * block * m
		return j0, n, devRing[off : off+n*m], sqRing[off : off+n*m]
	}
	var num, den float64
	mat.Pipeline((a.Cols+block-1)/block, mat.Workers, relErrorRing, func(b int) {
		j0, n, dev, sq := slot(b)
		t.errorTerms(a, dt, j0, j0+n, dev, sq)
	}, func(b int) {
		_, _, dev, sq := slot(b)
		for k := range dev {
			num += dev[k]
			den += sq[k]
		}
	})
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}

// errorTerms writes the error terms of columns [lo, hi) of A into dev and
// sq, column k-lo at offset (k-lo)·M: sq holds a_ij², dev (a_ij - (DC)_ij)²
// with (DC)_:j summed in C's storage order. dt is Dᵀ.
func (t *Transform) errorTerms(a, dt *mat.Dense, lo, hi int, dev, sq []float64) {
	m := a.Rows
	for i := 0; i < m; i++ {
		row := a.Row(i)[lo:hi]
		for k, v := range row {
			sq[k*m+i] = v
		}
	}
	for j := lo; j < hi; j++ {
		col, rec := sq[(j-lo)*m:(j-lo+1)*m], dev[(j-lo)*m:(j-lo+1)*m]
		mat.Zero(rec)
		for ptr := t.C.ColPtr[j]; ptr < t.C.ColPtr[j+1]; ptr++ {
			mat.Axpy(t.C.Val[ptr], dt.Row(t.C.RowIdx[ptr]), rec)
		}
		for i, v := range col {
			d := v - rec[i]
			rec[i] = d * d
			col[i] = v * v
		}
	}
}

// Reconstruct materializes D·C as a dense matrix (test/inspection helper;
// production paths never form it).
func (t *Transform) Reconstruct() *mat.Dense {
	out := mat.NewDense(t.D.Rows, t.C.Cols)
	col := make([]float64, t.D.Rows)
	for j := 0; j < t.C.Cols; j++ {
		mat.Zero(col)
		for ptr := t.C.ColPtr[j]; ptr < t.C.ColPtr[j+1]; ptr++ {
			atom, v := t.C.RowIdx[ptr], t.C.Val[ptr]
			for i := range col {
				col[i] += v * t.D.At(i, atom)
			}
		}
		out.SetCol(j, col)
	}
	return out
}

// MemoryWords returns the storage footprint of the transform in float64
// words, matching the paper's Table III accounting: M·L for D plus two words
// per nonzero of C (value + index) plus column pointers.
func (t *Transform) MemoryWords() int {
	return t.D.Rows*t.D.Cols + 2*t.C.NNZ() + t.C.Cols + 1
}
