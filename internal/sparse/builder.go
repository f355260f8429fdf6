package sparse

import "slices"

// Builder assembles a CSC matrix column by column. ExD's sparse coding emits
// one coefficient column per data column; the builder collects them in order
// without knowing the final nnz in advance.
type Builder struct {
	rows   int
	colPtr []int
	rowIdx []int
	val    []float64
}

// NewBuilder returns a builder for matrices with the given number of rows.
func NewBuilder(rows int) *Builder {
	return &Builder{rows: rows, colPtr: []int{0}}
}

// Reserve makes room for cols more columns holding nnz more entries, so
// appending them never regrows the arrays.
func (b *Builder) Reserve(cols, nnz int) {
	b.colPtr = slices.Grow(b.colPtr, cols)
	b.rowIdx = slices.Grow(b.rowIdx, nnz)
	b.val = slices.Grow(b.val, nnz)
}

// AppendColumn adds the next column with the given (index, value) pairs.
// Indices need not be sorted; they are sorted here. Duplicate indices and
// out-of-range indices panic: they indicate a bug in the encoder.
func (b *Builder) AppendColumn(idx []int, val []float64) {
	if len(idx) != len(val) {
		panic("sparse: AppendColumn length mismatch")
	}
	start := len(b.rowIdx)
	b.rowIdx = append(b.rowIdx, idx...)
	b.val = append(b.val, val...)
	rows := b.rowIdx[start:]
	sortPairs(rows, b.val[start:])
	for i, r := range rows {
		if r < 0 || r >= b.rows {
			panic("sparse: row index out of range")
		}
		if i > 0 && rows[i-1] == r {
			panic("sparse: duplicate row index in column")
		}
	}
	b.colPtr = append(b.colPtr, len(b.rowIdx))
}

// AppendEmptyColumn adds a column with no stored entries.
func (b *Builder) AppendEmptyColumn() { b.colPtr = append(b.colPtr, len(b.rowIdx)) }

// Cols returns the number of columns appended so far.
func (b *Builder) Cols() int { return len(b.colPtr) - 1 }

// Build finalizes the matrix. The builder must not be used afterwards.
func (b *Builder) Build() *CSC {
	return &CSC{
		Rows:   b.rows,
		Cols:   len(b.colPtr) - 1,
		ColPtr: b.colPtr,
		RowIdx: b.rowIdx,
		Val:    b.val,
	}
}

// insertionMax is the longest column sortPairs sorts by insertion. An
// OMP code holds a handful of atoms; longer columns (up to min(M, L)
// entries) are heap-sorted, so they stay O(k log k).
const insertionMax = 16

// sortPairs sorts idx ascending in place and applies the same permutation
// to val, calling no comparison through an interface.
func sortPairs(idx []int, val []float64) {
	n := len(idx)
	if n <= insertionMax {
		for i := 1; i < n; i++ {
			for j := i; j > 0 && idx[j] < idx[j-1]; j-- {
				idx[j], idx[j-1] = idx[j-1], idx[j]
				val[j], val[j-1] = val[j-1], val[j]
			}
		}
		return
	}
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(idx, val, i, n)
	}
	for end := n - 1; end > 0; end-- {
		idx[0], idx[end] = idx[end], idx[0]
		val[0], val[end] = val[end], val[0]
		siftDown(idx, val, 0, end)
	}
}

// siftDown restores the max-heap order of idx[:n] below node i, moving val
// alongside.
func siftDown(idx []int, val []float64, i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && idx[c+1] > idx[c] {
			c++
		}
		if idx[i] >= idx[c] {
			return
		}
		idx[i], idx[c] = idx[c], idx[i]
		val[i], val[c] = val[c], val[i]
		i = c
	}
}
