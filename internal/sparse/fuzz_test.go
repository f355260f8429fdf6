package sparse

import (
	"math"
	"testing"
)

// decodeInts turns fuzzer bytes into small signed ints so in-range row
// indices and plausible column pointers are actually reachable, not just
// astronomically unlikely.
func decodeInts(b []byte) []int {
	out := make([]int, len(b))
	for i, v := range b {
		out[i] = int(int8(v))
	}
	return out
}

// fuzzSpecials are the values the top byte values of decodeVec stand for.
var fuzzSpecials = [...]float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(), 1e308, -1e308}

// decodeVec turns fuzzer bytes into a length-n vector. Each byte is a small
// signed integer, +0 included, except the top few values, which stand for
// -0, ±Inf, NaN and ±1e308. Entries past the bytes read as 1.
func decodeVec(b []byte, n int) []float64 {
	x := make([]float64, n)
	first := 256 - len(fuzzSpecials)
	for i := range x {
		switch {
		case i >= len(b):
			x[i] = 1
		case int(b[i]) >= first:
			x[i] = fuzzSpecials[int(b[i])-first]
		default:
			x[i] = float64(int8(b[i]))
		}
	}
	return x
}

// FuzzCSCCheck decodes arbitrary bytes into a CSC skeleton and asserts the
// validator's contract: malformed structures (bad pointers, out-of-range or
// unsorted rows, negative dims) must be reported as errors, never as panics,
// and anything Check accepts must survive the full operation surface, with
// MulVec and MulVecT matching the reference loops bit for bit on a
// fuzzer-drawn x.
func FuzzCSCCheck(f *testing.F) {
	// Valid 3x2 matrix: cols {0:1, 2:-2} and {1:3}.
	f.Add(3, 2, []byte{0, 2, 3}, []byte{0, 2, 1}, []byte{1, 254, 3}, []byte{})
	// Valid with an empty middle column.
	f.Add(2, 3, []byte{0, 1, 1, 2}, []byte{0, 1}, []byte{5, 7}, []byte{2, 0, 3})
	// Short columns whose masked lanes meet Inf, NaN and -0 in x.
	f.Add(4, 4, []byte{0, 1, 3, 4, 6}, []byte{0, 1, 3, 2, 0, 3},
		[]byte{1, 2, 3, 4, 5, 6}, []byte{251, 252, 253, 250})
	// Empty matrix and degenerate shapes.
	f.Add(0, 0, []byte{0}, []byte{}, []byte{}, []byte{})
	f.Add(0, 2, []byte{0, 0, 0}, []byte{}, []byte{}, []byte{255})
	// Malformed: negative dims, short ColPtr, decreasing ColPtr,
	// out-of-range row, duplicate (non-increasing) rows.
	f.Add(-1, -1, []byte{}, []byte{}, []byte{}, []byte{})
	f.Add(3, 2, []byte{0, 1}, []byte{0}, []byte{1}, []byte{})
	f.Add(3, 2, []byte{0, 2, 1}, []byte{0, 1}, []byte{1, 2}, []byte{})
	f.Add(2, 1, []byte{0, 1}, []byte{9}, []byte{1}, []byte{})
	f.Add(3, 1, []byte{0, 2}, []byte{1, 1}, []byte{1, 2}, []byte{})
	f.Fuzz(func(t *testing.T, rows, cols int, ptr, idx, vals, xs []byte) {
		m := &CSC{
			Rows:   rows,
			Cols:   cols,
			ColPtr: decodeInts(ptr),
			RowIdx: decodeInts(idx),
		}
		m.Val = make([]float64, len(vals))
		for i, v := range vals {
			m.Val[i] = float64(int8(v))
		}
		if err := m.Check(); err != nil {
			return // rejected cleanly; that is the contract
		}
		// Check accepted the structure: every operation must be safe.
		if m.NNZ() != len(m.Val) {
			t.Fatalf("NNZ %d != len(Val) %d", m.NNZ(), len(m.Val))
		}
		d := m.Dense()
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				if d.At(i, j) != m.At(i, j) {
					t.Fatalf("Dense/At disagree at (%d,%d)", i, j)
				}
			}
		}
		checkKernels(t, "fuzz", m, decodeVec(xs, m.Cols), decodeVec(xs, m.Rows))
		if m.Cols > 0 {
			sub := m.ColSliceRange(0, m.Cols)
			if err := sub.Check(); err != nil {
				t.Fatalf("full ColSliceRange of valid matrix invalid: %v", err)
			}
		}
	})
}

// FuzzBuilderRoundTrip drives the incremental Builder with fuzzer-derived
// column specs — normalised to the documented contract (strictly increasing,
// in-range row indices), with empty columns whenever the spec byte says so —
// and asserts the built matrix passes Check and reads back every entry.
func FuzzBuilderRoundTrip(f *testing.F) {
	f.Add(4, []byte{2, 0, 0, 3, 1})
	f.Add(1, []byte{0, 0, 0})
	f.Add(8, []byte{255, 1, 254, 0, 2})
	f.Add(0, []byte{0, 0}) // zero-row matrix: only empty columns possible
	f.Fuzz(func(t *testing.T, rows int, spec []byte) {
		if rows < 0 || rows > 64 || len(spec) > 64 {
			t.Skip("outside the shape envelope the builder documents")
		}
		b := NewBuilder(rows)
		type entry struct {
			row int
			val float64
		}
		want := make([][]entry, 0, len(spec))
		for _, s := range spec {
			n := int(s) % 4 // 0..3 entries requested for this column
			if n == 0 || rows == 0 {
				b.AppendColumn(nil, nil)
				want = append(want, nil)
				continue
			}
			// Derive strictly increasing in-range rows from the spec byte.
			idx := make([]int, 0, n)
			val := make([]float64, 0, n)
			var es []entry
			r := int(s) % rows
			for k := 0; k < n && r < rows; k++ {
				v := float64(int(s)+k) - 7
				idx = append(idx, r)
				val = append(val, v)
				es = append(es, entry{r, v})
				r += 1 + int(s)%3
			}
			b.AppendColumn(idx, val)
			want = append(want, es)
		}
		m := b.Build()
		if err := m.Check(); err != nil {
			t.Fatalf("built matrix fails Check: %v", err)
		}
		if m.Rows != rows || m.Cols != len(spec) {
			t.Fatalf("built %dx%d, want %dx%d", m.Rows, m.Cols, rows, len(spec))
		}
		for j, es := range want {
			if n := m.ColPtr[j+1] - m.ColPtr[j]; n != len(es) {
				t.Fatalf("column %d has %d entries, want %d", j, n, len(es))
			}
			for _, e := range es {
				if got := m.At(e.row, j); math.Float64bits(got) != math.Float64bits(e.val) {
					t.Fatalf("At(%d,%d) = %v, want %v", e.row, j, got, e.val)
				}
			}
		}
	})
}
