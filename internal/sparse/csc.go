// Package sparse provides the compressed sparse column (CSC) and compressed
// sparse row (CSR) matrix types ExtDict uses to hold the coefficient matrix
// C produced by the ExD projection, plus the products the distributed
// computing model needs: C·x, Cᵀ·y, and per-column slicing for partitioning
// across processors.
//
// CSC is the native layout because ExD produces C column by column (one OMP
// solve per data column) and the distributed model (Algorithm 2) partitions
// C by columns.
package sparse

import (
	"fmt"
	"math"

	"extdict/internal/mat"
)

// CSC is a sparse matrix in compressed sparse column format. Column j's
// entries are RowIdx[ColPtr[j]:ColPtr[j+1]] / Val[ColPtr[j]:ColPtr[j+1]],
// with row indices strictly increasing within each column.
type CSC struct {
	Rows, Cols int
	ColPtr     []int
	RowIdx     []int
	Val        []float64
}

// NNZ returns the number of stored (structurally nonzero) entries.
func (m *CSC) NNZ() int { return len(m.Val) }

// Dense expands m into a dense matrix.
func (m *CSC) Dense() *mat.Dense {
	out := mat.NewDense(m.Rows, m.Cols)
	for j := 0; j < m.Cols; j++ {
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			out.Set(m.RowIdx[p], j, m.Val[p])
		}
	}
	return out
}

// laneMasks[k][i] is all ones when lane i lies inside a column of k
// entries and zero past the column's end.
//
// MulVec and MulVecT code every column of at most 4 entries whose 4-entry
// window lies inside RowIdx/Val in one masked pass of their 4-lane loops,
// with no branch on the column's length. A coded dictionary's C is mostly
// such columns: the tuned lightfield transform averages 2.5 entries per
// column, and all but 62 of its 24 576 columns hold 1–4. Longer columns,
// and the last few whose window would run past the arrays, take the loops.
var laneMasks = [5][4]uint64{
	{0, 0, 0, 0},
	{^uint64(0), 0, 0, 0},
	{^uint64(0), ^uint64(0), 0, 0},
	{^uint64(0), ^uint64(0), ^uint64(0), 0},
	{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)},
}

// masked returns prod under an all-ones mask and +0 under a zero one. The
// mask is applied to the product's bits, after the multiply, so an Inf or
// NaN met in a lane past the column's end becomes +0 too.
func masked(prod float64, mask uint64) float64 {
	return math.Float64frombits(math.Float64bits(prod) & mask)
}

// MulVec computes y = C·x, exploiting sparsity: cost is O(nnz).
// len(x) must be Cols; y must have length Rows (allocated when nil).
func (m *CSC) MulVec(x, y []float64) []float64 {
	if len(x) != m.Cols {
		panic("sparse: MulVec dimension mismatch")
	}
	if y == nil {
		y = make([]float64, m.Rows)
	}
	if len(y) != m.Rows {
		panic("sparse: MulVec output length mismatch")
	}
	mat.Zero(y)
	colPtr, rowIdx, val := m.ColPtr, m.RowIdx, m.Val
	end := min(len(rowIdx), len(val))
	for j, xj := range x {
		if xj == 0 {
			continue
		}
		p, hi := colPtr[j], colPtr[j+1]
		if k := uint(hi - p); k <= 4 && p+4 <= end {
			// One pass of the unrolled loop below over the column's 4-entry
			// window. A lane past the column's end adds +0 to a row of a
			// later column, which changes nothing: y starts at +0, and under
			// round-to-nearest a sum that starts at +0 is never -0.
			mk := &laneMasks[k]
			idx := rowIdx[p : p+4 : p+4]
			v := val[p : p+4 : p+4]
			y[idx[0]] += masked(v[0]*xj, mk[0])
			y[idx[1]] += masked(v[1]*xj, mk[1])
			y[idx[2]] += masked(v[2]*xj, mk[2])
			y[idx[3]] += masked(v[3]*xj, mk[3])
			continue
		}
		// 4-way unrolled scatter: updates stay in column order, so the
		// result is bit-identical to the scalar loop.
		for ; p+4 <= hi; p += 4 {
			idx := rowIdx[p : p+4 : p+4]
			v := val[p : p+4 : p+4]
			y[idx[0]] += v[0] * xj
			y[idx[1]] += v[1] * xj
			y[idx[2]] += v[2] * xj
			y[idx[3]] += v[3] * xj
		}
		for ; p < hi; p++ {
			y[rowIdx[p]] += val[p] * xj
		}
	}
	return y
}

// MulVecT computes y = Cᵀ·x in O(nnz). len(x) must be Rows; y must have
// length Cols (allocated when nil).
func (m *CSC) MulVecT(x, y []float64) []float64 {
	if len(x) != m.Rows {
		panic("sparse: MulVecT dimension mismatch")
	}
	if y == nil {
		y = make([]float64, m.Cols)
	}
	if len(y) != m.Cols {
		panic("sparse: MulVecT output length mismatch")
	}
	colPtr, rowIdx, val := m.ColPtr, m.RowIdx, m.Val
	end := min(len(rowIdx), len(val))
	for j := range y {
		// 4-accumulator gather dot: independent accumulators overlap the
		// gather latency; reassociation changes last-ulp rounding only.
		var s0, s1, s2, s3 float64
		p, hi := colPtr[j], colPtr[j+1]
		if k := uint(hi - p); k <= 4 && p+4 <= end {
			// One masked pass of the unrolled loop below. For 4 entries it
			// is that loop's pass. For k < 4 the lanes past k hold +0 and
			// no partial sum is -0 (each s starts at +0), so
			// (s0+s1)+(s2+s3) rounds as the tail loop's ((0+p0)+p1)+p2.
			mk := &laneMasks[k]
			idx := rowIdx[p : p+4 : p+4]
			v := val[p : p+4 : p+4]
			s0 += masked(v[0]*x[idx[0]], mk[0])
			s1 += masked(v[1]*x[idx[1]], mk[1])
			s2 += masked(v[2]*x[idx[2]], mk[2])
			s3 += masked(v[3]*x[idx[3]], mk[3])
		} else {
			for ; p+4 <= hi; p += 4 {
				idx := rowIdx[p : p+4 : p+4]
				v := val[p : p+4 : p+4]
				s0 += v[0] * x[idx[0]]
				s1 += v[1] * x[idx[1]]
				s2 += v[2] * x[idx[2]]
				s3 += v[3] * x[idx[3]]
			}
			for ; p < hi; p++ {
				s0 += val[p] * x[rowIdx[p]]
			}
		}
		y[j] = (s0 + s1) + (s2 + s3)
	}
	return y
}

// ColSliceRange returns the sub-matrix of columns [j0, j1) as a new CSC with
// fresh storage. Used to hand each simulated processor its column block.
func (m *CSC) ColSliceRange(j0, j1 int) *CSC {
	if j0 < 0 || j1 < j0 || j1 > m.Cols {
		panic("sparse: ColSliceRange out of bounds")
	}
	n := j1 - j0
	nnz := m.ColPtr[j1] - m.ColPtr[j0]
	out := &CSC{
		Rows:   m.Rows,
		Cols:   n,
		ColPtr: make([]int, n+1),
		RowIdx: make([]int, nnz),
		Val:    make([]float64, nnz),
	}
	base := m.ColPtr[j0]
	for j := 0; j <= n; j++ {
		out.ColPtr[j] = m.ColPtr[j0+j] - base
	}
	copy(out.RowIdx, m.RowIdx[base:m.ColPtr[j1]])
	copy(out.Val, m.Val[base:m.ColPtr[j1]])
	return out
}

// HStack concatenates blocks horizontally (all must share Rows). It is the
// inverse of splitting by ColSliceRange and is used by the evolving-data
// update to append new coefficient columns.
func HStack(blocks ...*CSC) *CSC {
	if len(blocks) == 0 {
		panic("sparse: HStack of nothing")
	}
	rows := blocks[0].Rows
	cols, nnz := 0, 0
	for _, b := range blocks {
		if b.Rows != rows {
			panic("sparse: HStack row mismatch")
		}
		cols += b.Cols
		nnz += b.NNZ()
	}
	out := &CSC{
		Rows:   rows,
		Cols:   cols,
		ColPtr: make([]int, 0, cols+1),
		RowIdx: make([]int, 0, nnz),
		Val:    make([]float64, 0, nnz),
	}
	out.ColPtr = append(out.ColPtr, 0)
	for _, b := range blocks {
		base := len(out.Val)
		for j := 0; j < b.Cols; j++ {
			out.ColPtr = append(out.ColPtr, base+b.ColPtr[j+1])
		}
		out.RowIdx = append(out.RowIdx, b.RowIdx...)
		out.Val = append(out.Val, b.Val...)
	}
	return out
}

// PadRows returns a copy of m with extra zero rows appended so the result
// has newRows rows. Existing entries keep their row indices. This implements
// the zero-padding step of the evolving-data update (paper Fig. 3), where C
// gains rows when the dictionary gains atoms.
func (m *CSC) PadRows(newRows int) *CSC {
	if newRows < m.Rows {
		panic("sparse: PadRows cannot shrink")
	}
	out := &CSC{
		Rows:   newRows,
		Cols:   m.Cols,
		ColPtr: append([]int(nil), m.ColPtr...),
		RowIdx: append([]int(nil), m.RowIdx...),
		Val:    append([]float64(nil), m.Val...),
	}
	return out
}

// ShiftRows returns a copy of m with all row indices increased by offset and
// the row count grown to newRows. Used for the lower-right block in the
// evolving-data zero-padding layout.
func (m *CSC) ShiftRows(offset, newRows int) *CSC {
	if offset < 0 || m.Rows+offset > newRows {
		panic("sparse: ShiftRows out of bounds")
	}
	out := m.PadRows(newRows)
	for i := range out.RowIdx {
		out.RowIdx[i] += offset
	}
	return out
}

// Check validates the CSC invariants, returning a descriptive error when the
// structure is malformed. Used by tests and by the builder.
func (m *CSC) Check() error {
	if m.Rows < 0 || m.Cols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", m.Rows, m.Cols)
	}
	if len(m.ColPtr) != m.Cols+1 {
		return fmt.Errorf("sparse: ColPtr length %d, want %d", len(m.ColPtr), m.Cols+1)
	}
	if m.ColPtr[0] != 0 || m.ColPtr[m.Cols] != len(m.Val) || len(m.Val) != len(m.RowIdx) {
		return fmt.Errorf("sparse: inconsistent pointers")
	}
	for j := 0; j < m.Cols; j++ {
		if m.ColPtr[j] > m.ColPtr[j+1] {
			return fmt.Errorf("sparse: decreasing ColPtr at column %d", j)
		}
		if m.ColPtr[j+1] > len(m.Val) {
			return fmt.Errorf("sparse: column %d ends at %d, past the %d stored entries", j, m.ColPtr[j+1], len(m.Val))
		}
		for p := m.ColPtr[j]; p < m.ColPtr[j+1]; p++ {
			if m.RowIdx[p] < 0 || m.RowIdx[p] >= m.Rows {
				return fmt.Errorf("sparse: row index %d out of range in column %d", m.RowIdx[p], j)
			}
			if p > m.ColPtr[j] && m.RowIdx[p-1] >= m.RowIdx[p] {
				return fmt.Errorf("sparse: unsorted rows in column %d", j)
			}
		}
	}
	return nil
}
