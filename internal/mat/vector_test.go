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

func TestAxpyRowsToMatchesAxpyPasses(t *testing.T) {
	// One pass of AxpyRowsTo leaves every entry as copy(dst, x) and then one
	// Axpy per row in order would, special values included, at lengths
	// around its four-entry blocks and for 0 to 12 rows.
	r := rng.New(64)
	for n := 0; n <= 4*5+3; n++ {
		for k := 0; k <= 12; k++ {
			specials := k%2 == 1
			x := make([]float64, n)
			pinFill(r, x, specials)
			a := make([]float64, k)
			pinFill(r, a, specials)
			rows := make([][]float64, k)
			for i := range rows {
				rows[i] = make([]float64, n)
				pinFill(r, rows[i], specials)
			}
			want := CopyVec(x)
			for i, row := range rows {
				Axpy(a[i], row, want)
			}
			got := make([]float64, n)
			AxpyRowsTo(got, x, a, rows)
			sameBits(t, "AxpyRowsTo", got, want)
		}
	}
	for _, c := range []struct {
		dst, x, a []float64
		rows      [][]float64
	}{
		{make([]float64, 2), make([]float64, 3), nil, nil},
		{make([]float64, 2), make([]float64, 2), []float64{1}, nil},
		{make([]float64, 2), make([]float64, 2), []float64{1}, [][]float64{make([]float64, 3)}},
	} {
		func() {
			defer func() {
				if r := recover(); r != "mat: AxpyRowsTo length mismatch" {
					t.Fatalf("AxpyRowsTo on mismatched lengths panicked with %v", r)
				}
			}()
			AxpyRowsTo(c.dst, c.x, c.a, c.rows)
		}()
	}
}

// oldNorm2 is Norm2's scaled recurrence before ssqStep took r = 1 for a
// magnitude equal to the scale: the pin that no finite input's bits moved.
func oldNorm2(x []float64) float64 {
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			scale, ssq = a, 1+ssq*r*r
		} else {
			r := a / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

func TestNorm2SpecialValues(t *testing.T) {
	inf, nan, negZero := math.Inf(1), math.NaN(), math.Copysign(0, -1)
	for _, c := range []struct {
		x    []float64
		want float64
	}{
		{nil, 0},
		{[]float64{0, negZero}, 0},
		{[]float64{inf}, inf},
		{[]float64{-inf}, inf},
		{[]float64{inf, inf}, inf},
		{[]float64{inf, -inf}, inf},
		{[]float64{inf, 1, -inf}, inf},
		{[]float64{1, -inf, 0, inf, 2}, inf},
		{[]float64{nan}, nan},
		{[]float64{1, nan, 2}, nan},
		{[]float64{inf, nan}, nan},
		{[]float64{nan, inf}, nan},
		{[]float64{3, 4}, 5},
		{[]float64{2, 2, 2, 2}, 4},
	} {
		if got := Norm2(c.x); math.IsNaN(c.want) != math.IsNaN(got) || !math.IsNaN(got) && got != c.want {
			t.Fatalf("norm of %v = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNorm2FiniteBitsUnchanged(t *testing.T) {
	// Datasets are normalized with Norm2, so no finite input may move:
	// random vectors, ones with magnitudes near 1e±300 and subnormals, and
	// ones whose entries repeat the running scale exactly.
	r := rng.New(65)
	for trial := 0; trial < 400; trial++ {
		n := 1 + r.Intn(40)
		x := make([]float64, n)
		for i := range x {
			switch r.Intn(6) {
			case 0:
				x[i] = r.NormFloat64() * 1e300
			case 1:
				x[i] = r.NormFloat64() * 1e-300
			case 2:
				x[i] = r.NormFloat64() * 0x1p-1060 // subnormal
			case 3:
				x[i] = x[r.Intn(i+1)] // an exact repeat, often of the scale
			default:
				x[i] = r.NormFloat64()
			}
		}
		want := oldNorm2(x)
		if got := Norm2(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Norm2(%v) = %v, old recurrence %v", x, got, want)
		}
	}
}
