package sparse

import (
	"math"
	"testing"

	"extdict/internal/rng"
)

// refMulVec and refMulVecT are MulVec and MulVecT as they were before the
// short-column path: the 4-way unrolled loops over every column. The kernels
// must reproduce them bit for bit.
func refMulVec(m *CSC, x []float64) []float64 {
	y := make([]float64, m.Rows)
	for j := 0; j < m.Cols; j++ {
		xj := x[j]
		if xj == 0 {
			continue
		}
		p, hi := m.ColPtr[j], m.ColPtr[j+1]
		for ; p+4 <= hi; p += 4 {
			idx := m.RowIdx[p : p+4 : p+4]
			v := m.Val[p : p+4 : p+4]
			y[idx[0]] += v[0] * xj
			y[idx[1]] += v[1] * xj
			y[idx[2]] += v[2] * xj
			y[idx[3]] += v[3] * xj
		}
		for ; p < hi; p++ {
			y[m.RowIdx[p]] += m.Val[p] * xj
		}
	}
	return y
}

func refMulVecT(m *CSC, x []float64) []float64 {
	y := make([]float64, m.Cols)
	for j := 0; j < m.Cols; j++ {
		var s0, s1, s2, s3 float64
		p, hi := m.ColPtr[j], m.ColPtr[j+1]
		for ; p+4 <= hi; p += 4 {
			idx := m.RowIdx[p : p+4 : p+4]
			v := m.Val[p : p+4 : p+4]
			s0 += v[0] * x[idx[0]]
			s1 += v[1] * x[idx[1]]
			s2 += v[2] * x[idx[2]]
			s3 += v[3] * x[idx[3]]
		}
		for ; p < hi; p++ {
			s0 += m.Val[p] * x[m.RowIdx[p]]
		}
		y[j] = (s0 + s1) + (s2 + s3)
	}
	return y
}

// sameBits fails unless got and want agree in every bit, signed zeros
// included, or are both NaN. An add of two NaNs returns one operand's
// payload, and which one follows the operand order the compiler picks for a
// commutative add (fuzz instrumentation alone changes it), so a NaN's
// payload is not part of either kernel's result.
func sameBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#016x), want %v (%#016x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkKernels runs MulVec on xc and MulVecT on xr against the reference
// loops, into output buffers that start out holding garbage.
func checkKernels(t testing.TB, what string, m *CSC, xc, xr []float64) {
	t.Helper()
	y := make([]float64, m.Rows)
	for i := range y {
		y[i] = math.NaN()
	}
	sameBits(t, what+": MulVec", m.MulVec(xc, y), refMulVec(m, xc))
	yt := make([]float64, m.Cols)
	for i := range yt {
		yt[i] = math.Inf(-1)
	}
	sameBits(t, what+": MulVecT", m.MulVecT(xr, yt), refMulVecT(m, xr))
}

// lengthsCSC builds a rows-row CSC whose column j holds lens[j] entries at
// distinct random rows, with normal values.
func lengthsCSC(r *rng.RNG, rows int, lens []int) *CSC {
	b := NewBuilder(rows)
	for _, k := range lens {
		val := make([]float64, k)
		for i := range val {
			val[i] = r.NormFloat64()
		}
		b.AppendColumn(r.Subset(rows, k), val)
	}
	return b.Build()
}

// normals returns n standard normal draws, every seventh one +0 or -0 so
// MulVec's zero skip and the signed-zero sums are exercised.
func normals(r *rng.RNG, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
		if i%7 == 3 {
			x[i] = math.Copysign(0, x[i])
		}
	}
	return x
}

func TestMulVecMatchesReferenceLoops(t *testing.T) {
	// Column lengths 0–9 cover the short path (0–4), one unrolled pass plus
	// a tail (5–7), and two passes (8, 9); a random tail of short columns
	// puts some windows past the arrays' end.
	r := rng.New(41)
	for trial := 0; trial < 200; trial++ {
		rows := 9 + r.Intn(40)
		lens := make([]int, 1+r.Intn(60))
		for j := range lens {
			lens[j] = r.Intn(10)
		}
		m := lengthsCSC(r, rows, lens)
		checkKernels(t, "random lengths", m, normals(r, m.Cols), normals(r, m.Rows))
	}
}

func TestMulVecWindowPastArrayEnd(t *testing.T) {
	// Short columns at the arrays' end: a 4-entry window that ends exactly
	// there takes the short path, one that would run past RowIdx/Val takes
	// the unrolled loops.
	r := rng.New(42)
	for _, lens := range [][]int{
		{1}, {2}, {3}, {4}, {0, 0, 1}, {1, 1, 1}, {2, 1}, {3, 0},
		{4, 1}, {4, 2, 1}, {9, 3}, {1, 1, 1, 1, 1}, {5, 0, 0, 2},
	} {
		m := lengthsCSC(r, 12, lens)
		checkKernels(t, "tail", m, normals(r, m.Cols), normals(r, m.Rows))
	}
}

// lightfieldCSC draws a 78×cols CSC with the tuned lightfield C's mix of
// column lengths: about 17/43/35/5% of 1-, 2-, 3- and 4-entry columns.
func lightfieldCSC(r *rng.RNG, cols int) *CSC {
	lens := make([]int, cols)
	for j := range lens {
		switch u := r.Intn(100); {
		case u < 17:
			lens[j] = 1
		case u < 60:
			lens[j] = 2
		case u < 95:
			lens[j] = 3
		default:
			lens[j] = 4
		}
	}
	return lengthsCSC(r, 78, lens)
}

func TestMulVecColSliceBlocks(t *testing.T) {
	// Every block of a 64-way split is a fresh CSC whose last short columns
	// cannot take the short path, as the operator's rank blocks are.
	r := rng.New(43)
	m := lightfieldCSC(r, 64*37+5)
	for i := 0; i < 64; i++ {
		blk := m.ColSliceRange(i*m.Cols/64, (i+1)*m.Cols/64)
		checkKernels(t, "block", blk, normals(r, blk.Cols), normals(r, blk.Rows))
	}
}

func TestMulVecSpecialValues(t *testing.T) {
	// ±0, ±Inf, NaN and ±1e308 sit in x next to short columns. Each
	// masked lane multiplies a value from a column or row it does not own;
	// the mask must turn Inf·v and NaN·v there into +0, not NaN.
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), 1e308, -1e308}
	r := rng.New(44)
	for trial := 0; trial < 300; trial++ {
		lens := make([]int, 2+r.Intn(20))
		for j := range lens {
			lens[j] = r.Intn(6)
		}
		m := lengthsCSC(r, 6+r.Intn(6), lens)
		xc, xr := normals(r, m.Cols), normals(r, m.Rows)
		for range 1 + r.Intn(3) {
			xc[r.Intn(len(xc))] = specials[r.Intn(len(specials))]
			xr[r.Intn(len(xr))] = specials[r.Intn(len(specials))]
		}
		checkKernels(t, "specials", m, xc, xr)
	}
}
