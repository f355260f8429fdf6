package sparse

import "extdict/internal/mat"

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
	if msg := sortChecked(b.rows, b.rowIdx[start:], b.val[start:]); msg != "" {
		panic(msg)
	}
	b.colPtr = append(b.colPtr, len(b.rowIdx))
}

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

// BuildColumns returns the rows×n matrix whose column j holds the pairs
// col(j) returns: the CSC matrix n AppendColumn calls in column order would
// build, with each column's pairs sorted by index. After a prefix sum of
// the column lengths, the columns are copied and sorted in parallel across
// mat.Workers chunks, each into its own slots. It panics as AppendColumn
// does, on the calling goroutine, for the first column that is bad. col is
// called twice per column and must return the same pairs both times.
func BuildColumns(rows, n int, col func(j int) (idx []int, val []float64)) *CSC {
	colPtr := make([]int, n+1)
	// AppendColumn checks the lengths before anything else, so the columns
	// before the first mismatch are built (and checked) and then it panics.
	cols := n
	for j := 0; j < n; j++ {
		idx, val := col(j)
		if len(idx) != len(val) {
			cols = j
			break
		}
		colPtr[j+1] = colPtr[j] + len(idx)
	}
	nnz := colPtr[cols]
	rowIdx := make([]int, nnz)
	vals := make([]float64, nnz)
	w := max(1, min(mat.Workers, cols))
	bad := make([]string, w) // the first bad column's panic, per chunk
	mat.ParallelChunks(cols, w, func(c, lo, hi int) {
		for j := lo; j < hi; j++ {
			idx, val := col(j)
			r, v := rowIdx[colPtr[j]:colPtr[j+1]], vals[colPtr[j]:colPtr[j+1]]
			copy(r, idx)
			copy(v, val)
			if bad[c] = sortChecked(rows, r, v); bad[c] != "" {
				return
			}
		}
	})
	for _, msg := range bad {
		if msg != "" {
			panic(msg)
		}
	}
	if cols < n {
		panic("sparse: AppendColumn length mismatch")
	}
	return &CSC{Rows: rows, Cols: n, ColPtr: colPtr, RowIdx: rowIdx, Val: vals}
}

// sortChecked sorts one column's pairs by index and returns the panic
// message AppendColumn gives for them, or "" when they are in range and
// distinct.
func sortChecked(rows int, idx []int, val []float64) string {
	sortPairs(idx, val)
	for i, r := range idx {
		if r < 0 || r >= rows {
			return "sparse: row index out of range"
		}
		if i > 0 && idx[i-1] == r {
			return "sparse: duplicate row index in column"
		}
	}
	return ""
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
