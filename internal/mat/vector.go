package mat

import "math"

// Dot returns the inner product of x and y, which must have equal length.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: Dot length mismatch")
	}
	return dotK(x, y)
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		scale, ssq = ssqStep(v, scale, ssq)
	}
	return scale * math.Sqrt(ssq)
}

// ssqStep folds v into the scaled sum of squares behind Norm2, whose norm
// is scale·√ssq: the scale tracks the largest magnitude seen, so no square
// overflows or underflows.
func ssqStep(v, scale, ssq float64) (float64, float64) {
	if v == 0 {
		return scale, ssq
	}
	a := math.Abs(v)
	if scale < a {
		r := scale / a
		return a, 1 + ssq*r*r
	}
	r := a / scale
	return scale, ssq + r*r
}

// AxpyDot computes y += alpha*x and returns Dot(z, y) of the updated y, in
// one pass over the three vectors. It is bit-identical to Axpy followed by
// Dot. Lengths must match.
func AxpyDot(alpha float64, x, y, z []float64) float64 {
	if len(x) != len(y) || len(z) != len(y) {
		panic("mat: AxpyDot length mismatch")
	}
	return axpyDotK(alpha, x, y, z)
}

// AxpyNorm2 computes y += alpha*x and returns Norm2(y) of the updated y, in
// one pass. It is bit-identical to Axpy followed by Norm2. Lengths must
// match.
func AxpyNorm2(alpha float64, x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: AxpyNorm2 length mismatch")
	}
	var scale, ssq float64 = 0, 1
	for i, xi := range x {
		v := y[i] + alpha*xi
		y[i] = v
		scale, ssq = ssqStep(v, scale, ssq)
	}
	return scale * math.Sqrt(ssq)
}

// Norm1 returns the 1-norm (sum of absolute values) of x.
func Norm1(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += math.Abs(v)
	}
	return s
}

// NormInf returns the max-norm of x.
func NormInf(x []float64) float64 {
	var s float64
	for _, v := range x {
		if a := math.Abs(v); a > s {
			s = a
		}
	}
	return s
}

// Axpy computes y += alpha*x in place. Lengths must match. The unrolled
// update is element-wise and therefore bit-identical to the scalar loop.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("mat: Axpy length mismatch")
	}
	axpyK(alpha, x, y)
}

// ScaleVec multiplies x by alpha in place.
func ScaleVec(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// CopyVec returns a fresh copy of x.
func CopyVec(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// SubVec computes dst = a - b. dst may alias a or b; all lengths must match.
func SubVec(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("mat: SubVec length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] - b[i]
	}
}

// AddVec computes dst = a + b. dst may alias a or b; all lengths must match.
func AddVec(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("mat: AddVec length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] + b[i]
	}
}

// Zero clears x in place.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}
