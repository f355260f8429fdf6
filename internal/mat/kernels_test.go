package mat

import (
	"fmt"
	"math"
	"testing"

	"extdict/internal/rng"
)

// refDot6K and refAxpy4K are dot6K and axpy4K as they were before their
// rows were resliced to the loop length: per-chunk slice expressions in
// dot6K, a 2-way unrolled loop with an odd tail in axpy4K. Every product and
// sum is the same expression in the same order, so MulVec, MulVecT,
// ParMulVec and MulTo must reproduce them bit for bit.
func refDot6K(r0, r1, r2, r3, r4, r5, x []float64) (y0, y1, y2, y3, y4, y5 float64) {
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xv := x[i : i+4 : i+4]
		u := r0[i : i+4 : i+4]
		v := r1[i : i+4 : i+4]
		w := r2[i : i+4 : i+4]
		z := r3[i : i+4 : i+4]
		s := r4[i : i+4 : i+4]
		t := r5[i : i+4 : i+4]
		y0 += (u[0]*xv[0] + u[1]*xv[1]) + (u[2]*xv[2] + u[3]*xv[3])
		y1 += (v[0]*xv[0] + v[1]*xv[1]) + (v[2]*xv[2] + v[3]*xv[3])
		y2 += (w[0]*xv[0] + w[1]*xv[1]) + (w[2]*xv[2] + w[3]*xv[3])
		y3 += (z[0]*xv[0] + z[1]*xv[1]) + (z[2]*xv[2] + z[3]*xv[3])
		y4 += (s[0]*xv[0] + s[1]*xv[1]) + (s[2]*xv[2] + s[3]*xv[3])
		y5 += (t[0]*xv[0] + t[1]*xv[1]) + (t[2]*xv[2] + t[3]*xv[3])
	}
	for ; i < len(x); i++ {
		y0 += r0[i] * x[i]
		y1 += r1[i] * x[i]
		y2 += r2[i] * x[i]
		y3 += r3[i] * x[i]
		y4 += r4[i] * x[i]
		y5 += r5[i] * x[i]
	}
	return
}

func refAxpy4K(a0, a1, a2, a3 float64, r0, r1, r2, r3, y []float64) {
	n := len(y)
	i := 0
	for ; i+2 <= n; i += 2 {
		y[i] += (a0*r0[i] + a1*r1[i]) + (a2*r2[i] + a3*r3[i])
		y[i+1] += (a0*r0[i+1] + a1*r1[i+1]) + (a2*r2[i+1] + a3*r3[i+1])
	}
	if i < n {
		y[i] += (a0*r0[i] + a1*r1[i]) + (a2*r2[i] + a3*r3[i])
	}
}

// refBlockedMulVec is MulVec's row blocking over the reference six-row
// kernel, into y (len m.Rows).
func refBlockedMulVec(m *Dense, x, y []float64) []float64 {
	i := 0
	for ; i+6 <= m.Rows; i += 6 {
		y[i], y[i+1], y[i+2], y[i+3], y[i+4], y[i+5] =
			refDot6K(m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3), m.Row(i+4), m.Row(i+5), x)
	}
	if i+4 <= m.Rows {
		y[i], y[i+1], y[i+2], y[i+3] = dot4K(m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3), x)
		i += 4
	}
	if i+2 <= m.Rows {
		y[i], y[i+1] = dot2K(m.Row(i), m.Row(i+1), x)
		i += 2
	}
	if i < m.Rows {
		y[i] = dotK(m.Row(i), x)
	}
	return y
}

// refBlockedMulVecT is MulVecT's four-row fusion over the reference axpy
// kernel, into y (len m.Cols).
func refBlockedMulVecT(m *Dense, x, y []float64) []float64 {
	Zero(y)
	i := 0
	for ; i+4 <= m.Rows; i += 4 {
		refAxpy4K(x[i], x[i+1], x[i+2], x[i+3], m.Row(i), m.Row(i+1), m.Row(i+2), m.Row(i+3), y)
	}
	for ; i < m.Rows; i++ {
		axpyK(x[i], m.Row(i), y)
	}
	return y
}

// sameBits fails unless got and want agree in every bit, signed zeros
// included, or are both NaN: which of two NaN operands an add returns
// follows the operand order the compiler picks, so a NaN's payload is not
// part of a kernel's result.
func sameBits(t *testing.T, what string, got, want []float64) {
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

// pinSpecials are the entries that reach the kernels' edge cases: signed
// zeros, infinities (whose products with zero are NaN), NaN, subnormals,
// and magnitudes whose products and sums overflow.
var pinSpecials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	5e-324, -2.5e-320, 0x1p-1060, 1e308, -1e308,
}

// pinFill fills v with standard normal draws; with specials, about one
// entry in four is replaced by a random pinSpecials value.
func pinFill(r *rng.RNG, v []float64, specials bool) {
	for i := range v {
		v[i] = r.NormFloat64()
		if specials && r.Intn(4) == 0 {
			v[i] = pinSpecials[r.Intn(len(pinSpecials))]
		}
	}
}

// pinMatrices returns a rows×cols matrix and a ColRange view of the same
// shape into a wider one (stride ≠ cols), both filled by pinFill.
func pinMatrices(r *rng.RNG, rows, cols int, specials bool) []*Dense {
	dense := NewDense(rows, cols)
	pinFill(r, dense.Data, specials)
	wide := NewDense(rows, cols+7)
	pinFill(r, wide.Data, specials)
	return []*Dense{dense, wide.ColRange(3, 3+cols)}
}

func TestMulVecKernelsMatchReference(t *testing.T) {
	// Rows 0–13 reach every 6/4/2/1 row-block remainder of MulVec and the
	// 4-row groups plus 0–3 single rows of MulVecT; cols 0–11 reach every
	// 4-chunk tail. Plain normals make a reassociated sum show in the last
	// bits; the specials run the same paths through ±0, ±Inf, NaN,
	// subnormals and overflow.
	r := rng.New(20)
	for _, specials := range []bool{false, true} {
		for rows := 0; rows <= 13; rows++ {
			for cols := 0; cols <= 11; cols++ {
				for _, m := range pinMatrices(r, rows, cols, specials) {
					what := fmt.Sprintf("%dx%d stride %d specials=%v", rows, cols, m.Stride, specials)
					x, xt := make([]float64, cols), make([]float64, rows)
					pinFill(r, x, specials)
					pinFill(r, xt, specials)

					y := make([]float64, rows)
					pinFill(r, y, true) // outputs start out holding garbage
					sameBits(t, what+": MulVec", m.MulVec(x, y), refBlockedMulVec(m, x, make([]float64, rows)))
					yp := make([]float64, rows)
					pinFill(r, yp, true)
					sameBits(t, what+": ParMulVec", m.ParMulVec(x, yp), refBlockedMulVec(m, x, make([]float64, rows)))
					yt := make([]float64, cols)
					pinFill(r, yt, true)
					sameBits(t, what+": MulVecT", m.MulVecT(xt, yt), refBlockedMulVecT(m, xt, make([]float64, cols)))

					// MulTo: row i of P·m is mᵀ·P.Row(i), the odd last
					// row going through axpy4K.
					for _, prow := range []int{1, 3} {
						p := NewDense(prow, rows)
						pinFill(r, p.Data, specials)
						dst := NewDense(prow, cols)
						pinFill(r, dst.Data, true)
						MulTo(dst, p, m)
						for i := 0; i < prow; i++ {
							sameBits(t, fmt.Sprintf("%s: MulTo %d-row P, row %d", what, prow, i),
								dst.Row(i), refBlockedMulVecT(m, p.Row(i), make([]float64, cols)))
						}
					}
				}
			}
		}
	}
}

func TestParMulVecMatchesReferenceSplit(t *testing.T) {
	// Past parallelThreshold ParMulVec splits its rows across workers on
	// mulVecBlock boundaries; every chunk must still reproduce the
	// reference row blocks.
	defer func(w int) { Workers = w }(Workers)
	r := rng.New(21)
	for _, specials := range []bool{false, true} {
		for _, rows := range []int{256, 301, 307} {
			for _, cols := range []int{5, 11, 38} {
				for _, m := range pinMatrices(r, rows, cols, specials) {
					x := make([]float64, cols)
					pinFill(r, x, specials)
					want := refBlockedMulVec(m, x, make([]float64, rows))
					for _, w := range []int{1, 2, 3, 7} {
						Workers = w
						y := make([]float64, rows)
						pinFill(r, y, true)
						sameBits(t, fmt.Sprintf("%dx%d stride %d specials=%v workers=%d: ParMulVec", rows, cols, m.Stride, specials, w),
							m.ParMulVec(x, y), want)
					}
				}
			}
		}
	}
}
