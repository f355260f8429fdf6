package sparse

import (
	"fmt"
	"math"
	"testing"

	"extdict/internal/mat/mattest"
	"extdict/internal/rng"
)

// accValue draws one entry of an input family: standard normals, normals
// scaled by 2^k with k uniform in [−60, 60], or normals with signed zeros,
// ±1e±150 and subnormals mixed in.
func accValue(r *rng.RNG, kind string) float64 {
	switch kind {
	case "wide":
		return math.Ldexp(r.NormFloat64(), r.Intn(121)-60)
	case "specials":
		specials := []float64{0, math.Copysign(0, -1), 1e150, -1e150, 1e-150, -1e-150,
			5e-324, -2.5e-320, 0x1p-1060}
		if r.Intn(3) == 0 {
			return specials[r.Intn(len(specials))] * math.Abs(r.NormFloat64()+2)
		}
	}
	return r.NormFloat64()
}

func TestMulVecWithinForwardErrorBounds(t *testing.T) {
	// Each entry of C·x (a row's products, added in column order) and of
	// Cᵀ·x (a column's products over four accumulators) is a float64 sum
	// of k products, so it lies within γₖ·Σ|terms| of the double-double
	// reference. In the cancelling family each column's entries come in
	// pairs within 2⁻⁴⁰ of each other's negative, read against x = 1, so
	// Cᵀ·x cancels to a small remainder.
	r := rng.New(43)
	for _, kind := range []string{"normal", "wide", "specials", "cancel"} {
		for trial := 0; trial < 60; trial++ {
			rows := 9 + r.Intn(40)
			lens := make([]int, 1+r.Intn(60))
			for j := range lens {
				lens[j] = r.Intn(10)
				if trial%10 == 0 {
					lens[j] = r.Intn(rows + 1)
				}
			}
			m := lengthsCSC(r, rows, lens)
			xc, xr := make([]float64, m.Cols), make([]float64, m.Rows)
			for i := range m.Val {
				m.Val[i] = accValue(r, kind)
			}
			for i := range xc {
				xc[i] = accValue(r, kind)
			}
			for i := range xr {
				xr[i] = accValue(r, kind)
			}
			if kind == "cancel" {
				for j := 0; j < m.Cols; j++ {
					for p := m.ColPtr[j] + 1; p < m.ColPtr[j+1]; p += 2 {
						m.Val[p] = -m.Val[p-1] * (1 + math.Ldexp(r.NormFloat64(), -40))
						xr[m.RowIdx[p]], xr[m.RowIdx[p-1]] = 1, 1
					}
				}
			}
			what := fmt.Sprintf("%s trial %d, %dx%d", kind, trial, m.Rows, m.Cols)
			y, yt := m.MulVec(xc, nil), m.MulVecT(xr, nil)
			for i, ref := range mattest.CSCMulVec(m.Rows, m.ColPtr, m.RowIdx, m.Val, xc) {
				if e, b := ref.Err(y[i]), ref.Bound(); !(e <= b) {
					t.Fatalf("%s: MulVec[%d] = %v, reference %v: error %.3g exceeds γ_%d bound %.3g",
						what, i, y[i], ref.Val.Float(), e, ref.N, b)
				}
			}
			for j, ref := range mattest.CSCMulVecT(m.Cols, m.ColPtr, m.RowIdx, m.Val, xr) {
				if e, b := ref.Err(yt[j]), ref.Bound(); !(e <= b) {
					t.Fatalf("%s: MulVecT[%d] = %v, reference %v: error %.3g exceeds γ_%d bound %.3g",
						what, j, yt[j], ref.Val.Float(), e, ref.N, b)
				}
			}
		}
	}
}
