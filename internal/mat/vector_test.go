package mat

import (
	"math"
	"testing"

	"extdict/internal/rng"
)

// fusedInputs draws x, y and z of length n, with signed zeros and values
// far above and below 1 mixed in so Norm2's rescaling and the dot's
// accumulators both see them.
func fusedInputs(r *rng.RNG, n int) (x, y, z []float64) {
	draw := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			switch r.Intn(9) {
			case 0:
				v[i] = math.Copysign(0, r.NormFloat64())
			case 1:
				v[i] = r.NormFloat64() * 1e150
			case 2:
				v[i] = r.NormFloat64() * 1e-150
			default:
				v[i] = r.NormFloat64()
			}
		}
		return v
	}
	return draw(), draw(), draw()
}

func sameVecBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestAxpyDotMatchesAxpyThenDot(t *testing.T) {
	r := rng.New(61)
	for n := 0; n <= 8*4+7; n++ {
		for trial := 0; trial < 20; trial++ {
			x, y, z := fusedInputs(r, n)
			a := r.NormFloat64()
			want := CopyVec(y)
			Axpy(a, x, want)
			wantDot := Dot(z, want)
			got := AxpyDot(a, x, y, z)
			sameVecBits(t, "AxpyDot y", y, want)
			if math.Float64bits(got) != math.Float64bits(wantDot) {
				t.Fatalf("n=%d: AxpyDot = %v, want %v", n, got, wantDot)
			}
		}
	}
}

func TestAxpyNorm2MatchesAxpyThenNorm2(t *testing.T) {
	// AxpyNorm2 is Axpy followed by FastNorm2, bit for bit, on the one-pass
	// path and on the rescaled second pass, which trials 1 and 2 reach by
	// scaling x and y so the squares overflow or underflow.
	r := rng.New(62)
	for n := 0; n <= 8*4+7; n++ {
		for trial := 0; trial < 20; trial++ {
			x, y, _ := fusedInputs(r, n)
			a := r.NormFloat64()
			switch trial {
			case 0:
				a = 0 // y keeps its entries, signed zeros included
			case 1, 2:
				s := 1e-200
				if trial == 2 {
					s = 1e200
				}
				for i := range x {
					x[i] = r.NormFloat64() * s
					y[i] = r.NormFloat64() * s
				}
			}
			want := CopyVec(y)
			Axpy(a, x, want)
			wantNorm := FastNorm2(want)
			got := AxpyNorm2(a, x, y)
			sameVecBits(t, "AxpyNorm2 y", y, want)
			if math.Float64bits(got) != math.Float64bits(wantNorm) {
				t.Fatalf("n=%d: AxpyNorm2 = %v, want %v", n, got, wantNorm)
			}
		}
	}
}

func TestScaleToMatchesScalarLoop(t *testing.T) {
	r := rng.New(63)
	for n := 0; n <= 4*3+3; n++ {
		x, dst, _ := fusedInputs(r, n)
		a := r.NormFloat64()
		want := make([]float64, n)
		for i := range want {
			want[i] = a * x[i]
		}
		ScaleTo(dst, a, x)
		sameVecBits(t, "ScaleTo", dst, want)
	}
	defer func() {
		if r := recover(); r != "mat: ScaleTo length mismatch" {
			t.Fatalf("ScaleTo on mismatched lengths panicked with %v", r)
		}
	}()
	ScaleTo(make([]float64, 2), 1, make([]float64, 3))
}
