package mat

import (
	"errors"
	"math"
)

// ErrNotPositiveDefinite is returned when a Cholesky factorization encounters
// a non-positive pivot, i.e. the input matrix is not (numerically) symmetric
// positive definite.
var ErrNotPositiveDefinite = errors.New("mat: matrix is not positive definite")

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix S = L·Lᵀ. The factor supports growing by one row/column at
// a time, which is the core trick of Batch-OMP: when an atom is added to the
// active set, the factorization of the active Gram matrix is updated in
// O(k²) instead of recomputed in O(k³).
type Cholesky struct {
	n int
	// l stores the lower triangle row-major with stride cap (the maximum
	// size the factor can grow to without reallocating).
	l      []float64
	stride int
}

// NewCholesky returns an empty factor able to grow to capacity×capacity.
func NewCholesky(capacity int) *Cholesky {
	if capacity < 1 {
		capacity = 1
	}
	return &Cholesky{l: make([]float64, capacity*capacity), stride: capacity}
}

// Size returns the current dimension of the factor.
func (c *Cholesky) Size() int { return c.n }

// Reset empties the factor so it can be reused for a new problem.
func (c *Cholesky) Reset() { c.n = 0 }

func (c *Cholesky) at(i, j int) float64 { return c.l[i*c.stride+j] }

func (c *Cholesky) set(i, j int, v float64) { c.l[i*c.stride+j] = v }

// grow ensures capacity for an (n+1)-dimensional factor.
func (c *Cholesky) growTo(n int) {
	if n <= c.stride {
		return
	}
	ns := c.stride * 2
	if ns < n {
		ns = n
	}
	nl := make([]float64, ns*ns)
	for i := 0; i < c.n; i++ {
		copy(nl[i*ns:i*ns+c.n], c.l[i*c.stride:i*c.stride+c.n])
	}
	c.l = nl
	c.stride = ns
}

// Append extends the factor from S (n×n) to S' (n+1 × n+1) where the new row
// of S' is [col..., diag]: col holds the n cross terms S'[n, 0..n-1] in the
// *original ordering of appended rows*, and diag = S'[n, n].
//
// It solves L·w = col, sets the new row of L to [wᵀ, sqrt(diag - wᵀw)], and
// returns ErrNotPositiveDefinite if the new pivot is not strictly positive.
func (c *Cholesky) Append(col []float64, diag float64) error {
	if len(col) != c.n {
		panic("mat: Cholesky.Append col length mismatch")
	}
	c.growTo(c.n + 1)
	n := c.n
	// Forward substitution: w = L⁻¹ col, written directly into the new row.
	row := c.l[n*c.stride : n*c.stride+n]
	for i := 0; i < n; i++ {
		li := c.l[i*c.stride : i*c.stride+i]
		s := col[i] - dotK(li, row)
		row[i] = s / c.at(i, i)
	}
	var wtw float64
	for _, v := range row {
		wtw += v * v
	}
	pivot := diag - wtw
	if pivot <= 0 || math.IsNaN(pivot) {
		return ErrNotPositiveDefinite
	}
	c.set(n, n, math.Sqrt(pivot))
	c.n = n + 1
	return nil
}

// SolveInPlace solves (L·Lᵀ)·x = b in place: on return b holds x.
// len(b) must equal Size. The forward half computes y = L⁻¹·b entry by
// entry as ForwardNext would, and the backward half is BackSolveInPlace.
func (c *Cholesky) SolveInPlace(b []float64) {
	if len(b) != c.n {
		panic("mat: Cholesky.SolveInPlace length mismatch")
	}
	// Forward: L·y = b.
	for i := range b {
		b[i] = c.forward(i, b[:i], b[i])
	}
	c.BackSolveInPlace(b)
}

// ForwardNext returns the last entry of y = L⁻¹·b, given the first Size−1
// entries of y in head and the last entry of b in bn. A caller that grows
// the factor and b by one entry at a time keeps y across appends and pays
// O(n) per step, where SolveInPlace's forward half recomputes all of y in
// O(n²); the entry is the one that forward half computes, bit for bit.
func (c *Cholesky) ForwardNext(head []float64, bn float64) float64 {
	if len(head) != c.n-1 {
		panic("mat: Cholesky.ForwardNext length mismatch")
	}
	return c.forward(c.n-1, head, bn)
}

// forward returns entry i of y = L⁻¹·b from y's first i entries (head) and
// b's entry i.
func (c *Cholesky) forward(i int, head []float64, bi float64) float64 {
	row := c.l[i*c.stride : i*c.stride+i]
	return (bi - dotK(row, head)) / c.at(i, i)
}

// BackSolveInPlace solves Lᵀ·x = y in place: on return y holds x. len(y)
// must equal Size. With y = L⁻¹·b from ForwardNext it completes
// SolveInPlace's solve of (L·Lᵀ)·x = b.
func (c *Cholesky) BackSolveInPlace(y []float64) {
	if len(y) != c.n {
		panic("mat: Cholesky.BackSolveInPlace length mismatch")
	}
	n := c.n
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= c.at(j, i) * y[j]
		}
		y[i] = s / c.at(i, i)
	}
}

// choleskyBlock is the panel width of the blocked Factorize. Within a panel
// the trailing correction loop touches at most choleskyBlock columns (an
// L1-resident strip); everything left of the panel is applied with the
// unrolled dot kernel in one contiguous pass per element.
const choleskyBlock = 64

// Factorize computes the full factorization of the symmetric positive
// definite matrix s, replacing any existing factor. Only the lower triangle
// of s is read.
//
// The loop nest is the left-looking blocked ordering: rows are processed in
// panels of choleskyBlock columns, and for element (i, j) the update from
// columns left of the panel — the dominant cost — is a single contiguous
// dot product (dotK) of finished row prefixes. It computes exactly the same
// multiply-subtract set as the textbook Cholesky–Crout loop, regrouped.
func (c *Cholesky) Factorize(s *Dense) error {
	if s.Rows != s.Cols {
		panic("mat: Cholesky.Factorize requires a square matrix")
	}
	n := s.Rows
	c.n = 0
	c.growTo(n)
	for j0 := 0; j0 < n; j0 += choleskyBlock {
		j1 := min(j0+choleskyBlock, n)
		for i := j0; i < n; i++ {
			li := c.l[i*c.stride : i*c.stride+i+1]
			for j := j0; j <= i && j < j1; j++ {
				lj := c.l[j*c.stride : j*c.stride+j+1]
				// Columns [0, j0): finished in earlier panels, one dot.
				sum := s.At(i, j) - dotK(li[:j0], lj[:j0])
				// Columns [j0, j): the in-panel strip, at most
				// choleskyBlock wide.
				for k := j0; k < j; k++ {
					sum -= li[k] * lj[k]
				}
				if i == j {
					if sum <= 0 || math.IsNaN(sum) {
						return ErrNotPositiveDefinite
					}
					li[i] = math.Sqrt(sum)
				} else {
					li[j] = sum / lj[j]
				}
			}
		}
	}
	c.n = n
	return nil
}

// SolveLeastSquares solves min_x ‖A·x - b‖₂ via the normal equations
// AᵀA·x = Aᵀb with a Cholesky factorization, ridge-regularized by eps·I for
// numerical robustness (pass eps = 0 for the exact normal equations).
// It is the pseudo-inverse application D⁺·b used by the CSS baselines.
func SolveLeastSquares(a *Dense, b []float64, eps float64) ([]float64, error) {
	if len(b) != a.Rows {
		panic("mat: SolveLeastSquares length mismatch")
	}
	g := ATA(a)
	if eps > 0 {
		for i := 0; i < g.Rows; i++ {
			g.Set(i, i, g.At(i, i)+eps)
		}
	}
	var ch Cholesky
	ch.l = make([]float64, g.Rows*g.Rows)
	ch.stride = g.Rows
	if err := ch.Factorize(g); err != nil {
		return nil, err
	}
	x := a.MulVecT(b, nil)
	ch.SolveInPlace(x)
	return x, nil
}
