package sparse

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"extdict/internal/mat"
	"extdict/internal/rng"
)

// randomColumns returns n columns of distinct, unsorted indices in
// [0, rows) with random values, of lengths 0 to 40, so both of sortPairs'
// paths run.
func randomColumns(r *rng.RNG, rows, n int) (idx [][]int, val [][]float64) {
	idx, val = make([][]int, n), make([][]float64, n)
	for j := range idx {
		k := r.Intn(min(rows, 41))
		idx[j] = r.Perm(rows)[:k]
		val[j] = make([]float64, k)
		for i := range val[j] {
			val[j][i] = r.NormFloat64()
		}
	}
	return idx, val
}

// builderPanic returns the panic AppendColumn raises for the columns, or
// nil, with the matrix the Builder built.
func builderPanic(rows int, idx [][]int, val [][]float64) (m *CSC, msg any) {
	defer func() { msg = recover() }()
	b := NewBuilder(rows)
	for j := range idx {
		b.AppendColumn(slices.Clone(idx[j]), slices.Clone(val[j]))
	}
	return b.Build(), nil
}

// buildColumnsPanic is builderPanic for BuildColumns.
func buildColumnsPanic(rows int, idx [][]int, val [][]float64) (m *CSC, msg any) {
	defer func() { msg = recover() }()
	return BuildColumns(rows, len(idx), func(j int) ([]int, []float64) { return idx[j], val[j] }), nil
}

func TestBuildColumnsMatchesBuilder(t *testing.T) {
	// BuildColumns sorts and copies the columns in parallel chunks, yet at
	// any worker count it builds the Builder's matrix bit for bit and
	// raises the Builder's panic for the first bad column: a duplicate, an
	// index out of range on either side, or a length mismatch, alone or
	// several at once. It leaves the columns it reads as they are.
	r := rng.New(71)
	defer func(w int) { mat.Workers = w }(mat.Workers)
	for trial := 0; trial < 40; trial++ {
		rows, n := 1+r.Intn(60), r.Intn(300)
		idx, val := randomColumns(r, rows, n)
		for k := r.Intn(3); k > 0 && n > 0; k-- {
			j := r.Intn(n)
			switch r.Intn(4) {
			case 0:
				if len(idx[j]) > 1 {
					idx[j][1] = idx[j][0]
				}
			case 1:
				idx[j] = append(idx[j], rows)
				val[j] = append(val[j], 1)
			case 2:
				idx[j] = append(idx[j], -1)
				val[j] = append(val[j], 1)
			case 3:
				val[j] = append(val[j], 1)
			}
		}
		want, wantPanic := builderPanic(rows, idx, val)
		before := fmt.Sprint(idx, val)
		for _, w := range []int{1, 2, 3} {
			mat.Workers = w
			got, gotPanic := buildColumnsPanic(rows, idx, val)
			if gotPanic != wantPanic {
				t.Fatalf("trial %d, Workers=%d: panic %v, Builder's %v", trial, w, gotPanic, wantPanic)
			}
			if fmt.Sprint(idx, val) != before {
				t.Fatalf("trial %d, Workers=%d: BuildColumns changed its input", trial, w)
			}
			if wantPanic != nil {
				continue
			}
			if got.Rows != want.Rows || got.Cols != want.Cols || !slices.Equal(got.ColPtr, want.ColPtr) ||
				!slices.Equal(got.RowIdx, want.RowIdx) ||
				!slices.EqualFunc(got.Val, want.Val, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
				t.Fatalf("trial %d, Workers=%d: BuildColumns built %+v, Builder %+v", trial, w, got, want)
			}
		}
	}
}
