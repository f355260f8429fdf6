package mat

import (
	"fmt"
	"math"
	"testing"

	"extdict/internal/mat/mattest"
	"extdict/internal/rng"
)

// The tests in this file state the accuracy the bit-identity pins never
// did: each float64 kernel lies within its a-priori forward-error bound of
// a double-double reference (internal/mat/mattest). For a sum of n products,
// however the kernel associates it, every term passes through at most n
// roundings, so the result lies within γₙ·Σ|terms| of the exact sum.

// accKinds are the input families of the accuracy tests.
var accKinds = []string{"normal", "wide", "cancel", "specials"}

// accSizes reach every unrolled tail of the kernels and a solver-sized
// vector.
var accSizes = []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 100, 1000, 24576}

// accInputs draws x, y and z of length n from one input family:
//   - normal: standard normals;
//   - wide: normals scaled by 2^k, k uniform in [−60, 60];
//   - cancel: wide pairs (xᵢ, yᵢ) and (xⱼ, yⱼ) with xⱼyⱼ within 2⁻⁴⁰ of
//     −xᵢyᵢ, and zᵢ = −zⱼ, so dots and sums cancel to a small remainder;
//   - specials: normals with signed zeros, ±1e±150 and subnormals mixed in,
//     the finite entries of the bit-identity pins.
func accInputs(r *rng.RNG, n int, kind string) (x, y, z []float64) {
	x, y, z = make([]float64, n), make([]float64, n), make([]float64, n)
	wide := func() float64 { return math.Ldexp(r.NormFloat64(), r.Intn(121)-60) }
	switch kind {
	case "normal":
		for i := range x {
			x[i], y[i], z[i] = r.NormFloat64(), r.NormFloat64(), r.NormFloat64()
		}
	case "wide":
		for i := range x {
			x[i], y[i], z[i] = wide(), wide(), wide()
		}
	case "cancel":
		h := n / 2
		for i := 0; i < h; i++ {
			x[i], y[i], z[i] = wide(), wide(), wide()
			j := n - 1 - i
			x[j] = x[i] * (1 + math.Ldexp(r.NormFloat64(), -40))
			y[j] = -y[i]
			z[j] = -z[i] * (1 + math.Ldexp(r.NormFloat64(), -40))
		}
		if n%2 == 1 {
			x[h], y[h], z[h] = r.NormFloat64(), r.NormFloat64(), r.NormFloat64()
		}
	case "specials":
		specials := []float64{0, math.Copysign(0, -1), 1e150, -1e150, 1e-150, -1e-150,
			5e-324, -2.5e-320, 0x1p-1060}
		draw := func() float64 {
			if r.Intn(3) == 0 {
				return specials[r.Intn(len(specials))] * math.Abs(r.NormFloat64()+2)
			}
			return r.NormFloat64()
		}
		for i := range x {
			x[i], y[i], z[i] = draw(), draw(), draw()
		}
	default:
		panic("unknown input kind " + kind)
	}
	return x, y, z
}

// within fails the test when a kernel's result lies outside ref's bound.
func within(t *testing.T, what string, got float64, ref mattest.Sum) {
	t.Helper()
	if e, b := ref.Err(got), ref.Bound(); !(e <= b) {
		t.Fatalf("%s = %v, reference %v: error %.3g exceeds bound %.3g (γ_%d·%.3g)",
			what, got, ref.Val.Float(), e, b, ref.N, ref.Abs)
	}
}

// norm2Depth is the γ index of Norm2's bound, relative to ‖x‖. The scaled
// recurrence forms each entry's square with three roundings (a/scale, its
// square, the add); each later entry adds one more to every earlier square,
// or, when it rescales, five (scale/a, used twice, two multiplies and the
// add of 1). So ssq is off by at most γ₅ₙ relative, and the square root and
// the multiply by scale bring the norm to ½γ₅ₙ + 2u ≤ γ₅ₙ₊₂.
func norm2Depth(n int) int { return 5*n + 2 }

// fastNorm2Depth is the γ index of FastNorm2's bound, relative to ‖x‖.
// Each square is one rounding and the sum of n of them adds at most n − 1
// more on any path; underflowed squares, when the first pass's sum is at
// least norm2SafeMin, cost at most one more. So the sum is off by at most
// γₙ₊₁ relative, and the root brings the norm to ½γₙ₊₁ + u ≤ γₙ₊₂. The
// rescaled second pass moves only exponents, so the same count holds.
func fastNorm2Depth(n int) int { return n + 2 }

// normWithin fails the test unless got lies within γ_depth·‖v‖ + 2η of the
// reference norm ref, widened by slack for rounding ahead of the norm.
func normWithin(t *testing.T, what string, got float64, ref mattest.DD, depth int, slack float64) {
	t.Helper()
	refF := ref.Float()
	b := mattest.Gamma(depth)*(refF+slack)*(1+4*mattest.U) + slack + 2*mattest.Eta
	if e := math.Abs(mattest.DD{Hi: got}.Sub(ref).Float()); !(e <= b) {
		t.Fatalf("%s = %v, reference %v: error %.3g exceeds bound %.3g (γ_%d)",
			what, got, refF, e, b, depth)
	}
}

// axpySlack bounds ‖ŷ − (y + αx)‖ for the rounded update ŷ = fl(y + fl(αx)):
// each entry is off by at most γ₂(|yᵢ| + |αxᵢ|).
func axpySlack(alpha float64, x, y []float64) float64 {
	v := make([]float64, len(y))
	for i := range v {
		v[i] = math.Abs(y[i]) + math.Abs(alpha*x[i])
	}
	return mattest.Gamma(2) * mattest.Norm2(v).Float() * (1 + 4*mattest.U)
}

func TestVectorKernelsWithinForwardErrorBounds(t *testing.T) {
	r := rng.New(70)
	for _, kind := range accKinds {
		for _, n := range accSizes {
			for trial := 0; trial < 4; trial++ {
				what := fmt.Sprintf("%s n=%d trial %d", kind, n, trial)
				x, y, z := accInputs(r, n, kind)
				within(t, what+": Dot", Dot(x, y), mattest.Dot(x, y))
				normWithin(t, what+": Norm2", Norm2(x), mattest.Norm2(x), norm2Depth(n), 0)
				normWithin(t, what+": FastNorm2", FastNorm2(x), mattest.Norm2(x), fastNorm2Depth(n), 0)

				alpha := r.NormFloat64()
				if kind == "cancel" {
					// An update that cancels y almost entirely.
					for i := range y {
						y[i] = -alpha * x[i] * (1 + math.Ldexp(r.NormFloat64(), -30))
					}
				}

				yd := CopyVec(y)
				within(t, what+": AxpyDot", AxpyDot(alpha, x, yd, z), mattest.AxpyDot(alpha, x, y, z))

				yn := CopyVec(y)
				normWithin(t, what+": AxpyNorm2", AxpyNorm2(alpha, x, yn),
					mattest.AxpyNorm2(alpha, x, y), fastNorm2Depth(n), axpySlack(alpha, x, y))
			}
		}
	}
}

func TestMatrixKernelsWithinForwardErrorBounds(t *testing.T) {
	defer func(w int) { Workers = w }(Workers)
	r := rng.New(71)
	for _, kind := range accKinds {
		for _, shape := range [][2]int{{0, 3}, {1, 1}, {3, 5}, {6, 4}, {7, 9}, {13, 11}, {40, 33}, {300, 17}} {
			rows, cols := shape[0], shape[1]
			wide := NewDense(rows, cols+5)
			for i := 0; i < rows; i++ {
				a, _, _ := accInputs(r, cols+5, kind)
				copy(wide.Row(i), a)
			}
			for _, m := range []*Dense{wide.ColRange(0, cols).Clone(), wide.ColRange(2, 2+cols)} {
				what := fmt.Sprintf("%s %dx%d stride %d", kind, rows, cols, m.Stride)
				x, _, _ := accInputs(r, cols, kind)
				xt, _, _ := accInputs(r, rows, kind)
				ref := mattest.MulVec(rows, cols, m.Stride, m.Data, x)
				refT := mattest.MulVecT(rows, cols, m.Stride, m.Data, xt)
				for _, w := range []int{1, 2, 3} {
					Workers = w
					y, yp, yt, ypt := m.MulVec(x, nil), m.ParMulVec(x, nil), m.MulVecT(xt, nil), m.ParMulVecT(xt, nil)
					for i := range ref {
						within(t, fmt.Sprintf("%s: MulVec[%d]", what, i), y[i], ref[i])
						within(t, fmt.Sprintf("%s workers=%d: ParMulVec[%d]", what, w, i), yp[i], ref[i])
					}
					for j := range refT {
						within(t, fmt.Sprintf("%s: MulVecT[%d]", what, j), yt[j], refT[j])
						within(t, fmt.Sprintf("%s workers=%d: ParMulVecT[%d]", what, w, j), ypt[j], refT[j])
					}
				}
			}
		}
	}
}

func TestNormsWithinForwardErrorBoundsAtExtremes(t *testing.T) {
	// Entries whose squares overflow or underflow, alone or mixed with
	// ordinary ones: FastNorm2 and AxpyNorm2 take their rescaled second
	// pass here, and Norm2 its rescaling steps.
	r := rng.New(72)
	draw := map[string]func() float64{
		"huge":      func() float64 { return math.Ldexp(r.NormFloat64(), 900+r.Intn(100)) },
		"tiny":      func() float64 { return math.Ldexp(r.NormFloat64(), -1000+r.Intn(100)) },
		"subnormal": func() float64 { return math.Ldexp(r.NormFloat64(), -1070+r.Intn(40)) },
		"mixed": func() float64 {
			switch r.Intn(4) {
			case 0:
				return 1e200 * r.NormFloat64()
			case 1:
				return 1e-200 * r.NormFloat64()
			case 2:
				return math.Copysign(0, r.NormFloat64())
			}
			return r.NormFloat64()
		},
	}
	for _, kind := range []string{"huge", "tiny", "subnormal", "mixed"} {
		for _, n := range accSizes {
			for trial := 0; trial < 3; trial++ {
				what := fmt.Sprintf("%s n=%d trial %d", kind, n, trial)
				x, y := make([]float64, n), make([]float64, n)
				for i := range x {
					x[i], y[i] = draw[kind](), draw[kind]()
				}
				normWithin(t, what+": Norm2", Norm2(x), mattest.Norm2(x), norm2Depth(n), 0)
				normWithin(t, what+": FastNorm2", FastNorm2(x), mattest.Norm2(x), fastNorm2Depth(n), 0)
				alpha := r.NormFloat64()
				normWithin(t, what+": AxpyNorm2", AxpyNorm2(alpha, x, CopyVec(y)),
					mattest.AxpyNorm2(alpha, x, y), fastNorm2Depth(n), axpySlack(alpha, x, y))
			}
		}
	}
}
