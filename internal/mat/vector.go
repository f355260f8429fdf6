package mat

import "math"

// Dot returns the inner product of x and y, which must have equal length.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: Dot length mismatch")
	}
	return dotK(x, y)
}

// Norm2 returns the Euclidean norm of x by the scaled recurrence: no
// square overflows or underflows, at a division per entry. Dataset
// generation normalizes with it, so its bits are frozen: changing them
// would move every generated dataset. Hot loops use FastNorm2.
func Norm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		scale, ssq = ssqStep(v, scale, ssq)
	}
	return scale * math.Sqrt(ssq)
}

// ssqStep folds v into the scaled sum of squares behind Norm2 and
// Dense.FrobNorm, whose norm is scale·√ssq: the scale tracks the largest
// magnitude seen, so no square overflows or underflows. A magnitude equal
// to the scale adds r = 1 without dividing: a/a is exactly 1 for every
// finite a, and Inf/Inf would be NaN, so a second ±Inf keeps the norm +Inf.
func ssqStep(v, scale, ssq float64) (float64, float64) {
	if v == 0 {
		return scale, ssq
	}
	a := math.Abs(v)
	if scale < a {
		r := scale / a
		return a, 1 + ssq*r*r
	}
	r := 1.0
	if a != scale {
		r = a / scale
	}
	return scale, ssq + r*r
}

// FastNorm2 returns the Euclidean norm of x in one pass with no division
// per entry: Dot(x, x) sums the unscaled squares over four independent
// accumulators. Only when that sum is not finite, or lies below
// norm2SafeMin where squares lost to underflow could matter, does a second
// pass recompute it on x scaled by a power of two (the safe scaling of
// Anderson, ACM TOMS Algorithm 978). NaN anywhere gives NaN; ±Inf and no
// NaN give +Inf; an empty or all-zero x gives +0. Its last bits may differ
// from Norm2's: each lies within γₙ₊₂·‖x‖ of the exact norm, Norm2 within
// γ₅ₙ₊₂·‖x‖ (internal/mat/accuracy_test.go).
func FastNorm2(x []float64) float64 {
	return norm2Finish(dotK(x, x), x)
}

// norm2SafeMin is the smallest unscaled sum of squares FastNorm2 takes
// from its first pass, 2⁻⁹⁶⁹ = 2⁵³·2⁻¹⁰²². A square that underflows is off
// by at most 2⁻¹⁰⁷⁵, so n of them by at most n·2⁻¹⁰⁷⁵ ≤ u·2⁻⁹⁶⁹ for any
// n < 2⁵³: from this sum up, underflow costs at most one more rounding.
const norm2SafeMin = 0x1p-969

// norm2Finish returns ‖x‖ given s, the unscaled sum of squares of x in
// dotK's order: √s when s lies in [norm2SafeMin, MaxFloat64], else the
// rescaled second pass.
func norm2Finish(s float64, x []float64) float64 {
	if s >= norm2SafeMin && s <= math.MaxFloat64 {
		return math.Sqrt(s)
	}
	return norm2Rescaled(s, x)
}

// norm2Rescaled is FastNorm2's second pass, for a first-pass sum s that
// is NaN, +Inf or below norm2SafeMin. Squares are never negative, so s is
// NaN exactly when x holds a NaN, and is returned as it is. Otherwise x is
// scaled by the power of two 2⁻ᵉ that brings its largest magnitude m into
// [1/2, 1), which moves exponents and nothing else, so no square overflows
// and the ones that underflow are below 2⁻¹⁰⁷⁴ of a sum of at least 1/4;
// the root is scaled back by 2ᵉ. An m of +0 or +Inf is the norm itself.
func norm2Rescaled(s float64, x []float64) float64 {
	if math.IsNaN(s) {
		return s
	}
	m := NormInf(x)
	if m == 0 || math.IsInf(m, 1) {
		return m
	}
	_, e := math.Frexp(m)
	var t float64
	for _, v := range x {
		w := math.Ldexp(v, -e)
		t += w * w
	}
	return math.Ldexp(math.Sqrt(t), e)
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

// AxpyNorm2 computes y += alpha*x and returns FastNorm2(y) of the updated
// y, in one pass unless FastNorm2 needs its second. It is bit-identical to
// Axpy followed by FastNorm2. Lengths must match.
func AxpyNorm2(alpha float64, x, y []float64) float64 {
	if len(x) != len(y) {
		panic("mat: AxpyNorm2 length mismatch")
	}
	return norm2Finish(axpySumSqK(alpha, x, y), y)
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

// AxpyRowsTo computes dst = x + a[0]·rows[0] + … + a[k−1]·rows[k−1] in one
// pass over dst, adding each entry's terms left to right: bit for bit what
// copy(dst, x) followed by Axpy(a[i], rows[i], dst) for i = 0, …, k−1
// gives, without reading and writing dst k times. A zero a[i] is applied
// like any other (0·Inf is NaN), so a caller that skips zero coefficients
// leaves their rows out. len(a) must equal len(rows), and x and every row
// must have dst's length.
func AxpyRowsTo(dst, x, a []float64, rows [][]float64) {
	if len(x) != len(dst) || len(a) != len(rows) {
		panic("mat: AxpyRowsTo length mismatch")
	}
	for _, r := range rows {
		if len(r) != len(dst) {
			panic("mat: AxpyRowsTo length mismatch")
		}
	}
	axpyRowsK(dst, x, a, rows)
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

// ScaleTo computes dst = alpha*x. Lengths must match. The unrolled update
// is element-wise and therefore bit-identical to the scalar loop.
func ScaleTo(dst []float64, alpha float64, x []float64) {
	if len(x) != len(dst) {
		panic("mat: ScaleTo length mismatch")
	}
	scaleToK(dst, alpha, x)
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
