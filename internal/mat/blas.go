package mat

// This file holds the level-2/level-3 kernels: matrix-vector products,
// transpose products, general matrix multiply, and the symmetric AᵀA used to
// form Gram matrices. Loop orders are chosen for row-major locality — every
// inner loop streams over contiguous memory — and the inner loops themselves
// are the register-blocked primitives in kernels.go.

// MulVec computes y = A·x. len(x) must be A.Cols; y must have length A.Rows
// (allocated when nil). Returns y.
func (m *Dense) MulVec(x, y []float64) []float64 {
	if len(x) != m.Cols {
		panic("mat: MulVec dimension mismatch")
	}
	if y == nil {
		y = make([]float64, m.Rows)
	}
	if len(y) != m.Rows {
		panic("mat: MulVec output length mismatch")
	}
	mulVecRows(m, x, y, 0, m.Rows)
	return y
}

// mulVecRows computes y[i-lo] = <A[i,:], x> for i in [lo, hi), blocking six
// rows per pass so all share each load of x (dot6K); remainder rows drop to
// the narrower dot kernels. y is indexed from 0: y[0] is row lo.
// mulVecBlock is the row-block width — ParMulVec aligns its chunk
// boundaries to it so every row lands in the same block it occupies
// serially.
const mulVecBlock = 6

func mulVecRows(m *Dense, x, y []float64, lo, hi int) {
	i := lo
	for ; i+6 <= hi; i += 6 {
		y[i-lo], y[i-lo+1], y[i-lo+2], y[i-lo+3], y[i-lo+4], y[i-lo+5] =
			dot6K(m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3), m.Row(i+4), m.Row(i+5), x)
	}
	if i+4 <= hi {
		y[i-lo], y[i-lo+1], y[i-lo+2], y[i-lo+3] =
			dot4K(m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3), x)
		i += 4
	}
	if i+2 <= hi {
		y[i-lo], y[i-lo+1] = dot2K(m.Row(i), m.Row(i+1), x)
		i += 2
	}
	if i < hi {
		y[i-lo] = dotK(m.Row(i), x)
	}
}

// MulVecT computes y = Aᵀ·x. len(x) must be A.Rows; y must have length
// A.Cols (allocated when nil). Returns y.
func (m *Dense) MulVecT(x, y []float64) []float64 {
	if len(x) != m.Rows {
		panic("mat: MulVecT dimension mismatch")
	}
	if y == nil {
		y = make([]float64, m.Cols)
	}
	if len(y) != m.Cols {
		panic("mat: MulVecT output length mismatch")
	}
	Zero(y)
	mulVecTRows(m, x, y, 0, m.Rows)
	return y
}

// mulVecTRows accumulates y += Σ_{i in [lo,hi)} x[i]·A[i,:], fusing four row
// streams per pass over y (axpy4K). x is indexed from 0: x[0] is row lo.
func mulVecTRows(m *Dense, x, y []float64, lo, hi int) {
	i := lo
	for ; i+4 <= hi; i += 4 {
		axpy4K(x[i-lo], x[i-lo+1], x[i-lo+2], x[i-lo+3],
			m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3), y)
	}
	for ; i < hi; i++ {
		axpyK(x[i-lo], m.Row(i), y)
	}
}

// MulTo computes dst = A·B. dst must be A.Rows×B.Cols and must not alias A
// or B. The product runs in column tiles of mulToTileJ so the streamed
// panels stay cache-resident; within a tile each dst row is updated by four
// B rows at a time.
func MulTo(dst, a, b *Dense) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("mat: MulTo dimension mismatch")
	}
	for i := 0; i < dst.Rows; i++ {
		Zero(dst.Row(i))
	}
	for jLo := 0; jLo < b.Cols; jLo += mulToTileJ {
		jHi := min(jLo+mulToTileJ, b.Cols)
		mulToPanel(dst, a, b, jLo, jHi)
	}
}

// ATA computes the Gram matrix G = AᵀA (A.Cols × A.Cols), exploiting
// symmetry: only the upper triangle is computed (8-row-blocked, see
// ataPanel), then mirrored.
func ATA(a *Dense) *Dense {
	n := a.Cols
	g := NewDense(n, n)
	ataPanel(a, g, 0, n)
	mirrorLower(g)
	return g
}
