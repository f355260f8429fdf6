package solver

import (
	"fmt"
	"math"
	"testing"

	"extdict/internal/mat"
	"extdict/internal/rng"
)

// prevAxpyNorm2 is mat.AxpyNorm2 before the power iteration dropped its
// per-entry divisions: y += αx folded into Norm2's scaled recurrence.
func prevAxpyNorm2(alpha float64, x, y []float64) float64 {
	var scale, ssq float64 = 0, 1
	for i, xi := range x {
		v := y[i] + alpha*xi
		y[i] = v
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			scale, ssq = a, 1+ssq*r*r
			continue
		}
		r := a / scale
		ssq += r * r
	}
	return scale * math.Sqrt(ssq)
}

// prevStep is one power-iteration step's vector work before the rewrite:
// deflate with the scaled-recurrence norm, then x ← G·x/λ by a division
// per entry.
func prevStep(x, gx []float64, comps [][]float64) {
	var lambda float64
	if len(comps) == 0 {
		lambda = mat.Norm2(gx)
	} else {
		d := mat.Dot(comps[0], gx)
		for i := 1; i < len(comps); i++ {
			d = mat.AxpyDot(-d, comps[i-1], gx, comps[i])
		}
		lambda = prevAxpyNorm2(-d, comps[len(comps)-1], gx)
	}
	for i := range x {
		x[i] = gx[i] / lambda
	}
}

// BenchmarkDeflate times one power-iteration step's vector work at
// N = 24 576 (the lightfield preset's N on perfbench solve-exd) with k = 0,
// 5 and 9 components found: deflate G·x off them and take its norm, then
// x ← G·x/λ. "prev" runs the same step as it was before the rewrite
// (scaled-recurrence norm, a division per entry), in the same process.
func BenchmarkDeflate(b *testing.B) {
	const n = 24576
	r := rng.New(90)
	vec := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = r.NormFloat64()
		}
		return v
	}
	comps := make([][]float64, 9)
	for i := range comps {
		comps[i] = vec()
		mat.ScaleVec(1/mat.Norm2(comps[i]), comps[i])
	}
	x, gx := make([]float64, n), vec()
	for _, k := range []int{0, 5, 9} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mat.ScaleTo(x, 1/deflate(gx, comps[:k], nil), gx)
			}
		})
		b.Run(fmt.Sprintf("k=%d/prev", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prevStep(x, gx, comps[:k])
			}
		})
	}
}
