// Package mat implements the dense linear algebra kernels ExtDict is built
// on: matrices, matrix-vector and matrix-matrix products, Cholesky
// factorization, triangular solves, and the norms used by the projection
// error criterion.
//
// It plays the role the Eigen library plays in the paper's C++
// implementation, written from scratch on float64 slices using only the
// standard library. Hot kernels are cache-friendly (row-major, ikj loop
// orders) and the large ones can run across goroutines (see parallel.go).
package mat

import (
	"fmt"
	"math"
)

// Dense is a dense row-major matrix. Element (i, j) is stored at
// Data[i*Stride+j]. Most code uses Stride == Cols; views produced by slicing
// keep the parent's stride.
type Dense struct {
	Rows, Cols int
	Stride     int
	Data       []float64
}

// NewDense returns a zeroed r×c matrix. It panics if r or c is negative.
func NewDense(r, c int) *Dense {
	if r < 0 || c < 0 {
		panic("mat: negative dimension")
	}
	return &Dense{Rows: r, Cols: c, Stride: c, Data: make([]float64, r*c)}
}

// NewDenseData wraps an existing backing slice as an r×c matrix. The slice
// must have exactly r*c elements; it is used directly, not copied.
func NewDenseData(r, c int, data []float64) *Dense {
	if len(data) != r*c {
		panic(fmt.Sprintf("mat: data length %d does not match %dx%d", len(data), r, c))
	}
	return &Dense{Rows: r, Cols: c, Stride: c, Data: data}
}

// At returns element (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Stride+j] }

// Set assigns element (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Stride+j] = v }

// Row returns row i as a slice that aliases the matrix storage.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Stride : i*m.Stride+m.Cols] }

// Col copies column j into dst (allocated when nil) and returns it.
func (m *Dense) Col(j int, dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, m.Rows)
	}
	if len(dst) != m.Rows {
		panic("mat: Col dst length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.Data[i*m.Stride+j]
	}
	return dst
}

// SetCol writes src into column j.
func (m *Dense) SetCol(j int, src []float64) {
	if len(src) != m.Rows {
		panic("mat: SetCol src length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Stride+j] = src[i]
	}
}

// Clone returns a deep copy with a compact stride.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i))
	}
	return out
}

// ColSlice returns an m.Rows×len(cols) matrix whose columns are the listed
// columns of m, in order. The result owns fresh storage.
func (m *Dense) ColSlice(cols []int) *Dense {
	out := NewDense(m.Rows, len(cols))
	for i := 0; i < m.Rows; i++ {
		src := m.Row(i)
		dst := out.Row(i)
		for k, j := range cols {
			dst[k] = src[j]
		}
	}
	return out
}

// RowSlice returns a len(rows)×m.Cols matrix whose rows are the listed rows
// of m, in order. The result owns fresh storage.
func (m *Dense) RowSlice(rows []int) *Dense {
	out := NewDense(len(rows), m.Cols)
	for k, i := range rows {
		copy(out.Row(k), m.Row(i))
	}
	return out
}

// ColRange returns a view of columns [j0, j1) sharing m's storage. A
// matrix with no rows gives an empty view.
func (m *Dense) ColRange(j0, j1 int) *Dense {
	if j0 < 0 || j1 < j0 || j1 > m.Cols {
		panic("mat: ColRange out of bounds")
	}
	v := &Dense{Rows: m.Rows, Cols: j1 - j0, Stride: m.Stride}
	if m.Rows > 0 {
		v.Data = m.Data[j0 : (m.Rows-1)*m.Stride+j1]
	}
	return v
}

// T returns a newly allocated transpose of m.
func (m *Dense) T() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*out.Stride+i] = v
		}
	}
	return out
}

// Equal reports whether a and b have the same shape and all elements within
// tol of each other.
func Equal(a, b *Dense, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if math.Abs(ra[j]-rb[j]) > tol {
				return false
			}
		}
	}
	return true
}

// FrobNorm returns the Frobenius norm of m, by Norm2's scaled recurrence
// over the rows in storage order.
func (m *Dense) FrobNorm() float64 {
	var scale, ssq float64 = 0, 1
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			scale, ssq = ssqStep(v, scale, ssq)
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormalizeColumns scales every column of m to unit Euclidean norm in place,
// leaving all-zero columns untouched. It returns the original norms.
// ExD (Algorithm 1) requires a column-normalized input matrix.
func (m *Dense) NormalizeColumns() []float64 {
	norms := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for j, v := range m.Row(i) {
			norms[j] += v * v
		}
	}
	inv := make([]float64, m.Cols)
	for j, s := range norms {
		norms[j] = math.Sqrt(s)
		if norms[j] > 0 {
			inv[j] = 1 / norms[j]
		}
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= inv[j]
		}
	}
	return norms
}

// Scale multiplies every element of m by s in place.
func (m *Dense) Scale(s float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] *= s
		}
	}
}

// Add accumulates b into m element-wise (m += b). Shapes must match.
func (m *Dense) Add(b *Dense) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("mat: Add shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		rm, rb := m.Row(i), b.Row(i)
		for j := range rm {
			rm[j] += rb[j]
		}
	}
}

// Sub subtracts b from m element-wise (m -= b). Shapes must match.
func (m *Dense) Sub(b *Dense) {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic("mat: Sub shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		rm, rb := m.Row(i), b.Row(i)
		for j := range rm {
			rm[j] -= rb[j]
		}
	}
}
