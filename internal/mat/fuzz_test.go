package mat

import (
	"encoding/binary"
	"math"
	"testing"

	"extdict/internal/mat/mattest"
)

// fuzzFloats decodes b as little-endian float64s, 8 bytes each, dropping a
// short tail, and splits them into two halves of equal length.
func fuzzFloats(b []byte) (x, y []float64) {
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	h := len(v) / 2
	return v[:h], v[h : 2*h]
}

// fuzzBytes encodes x followed by y as fuzzFloats reads them.
func fuzzBytes(x, y []float64) []byte {
	b := make([]byte, 0, 8*(len(x)+len(y)))
	for _, v := range append(append([]float64{}, x...), y...) {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// checkNorm checks got, a FastNorm2 of x: NaN anywhere gives NaN, ±Inf
// and no NaN give +Inf, all zeros (or none) give +0, and finite entries
// give a result within FastNorm2's forward-error bound.
func checkNorm(t *testing.T, what string, got float64, x []float64) {
	t.Helper()
	var hasNaN, hasInf, allZero = false, false, true
	for _, v := range x {
		hasNaN = hasNaN || math.IsNaN(v)
		hasInf = hasInf || math.IsInf(v, 0)
		allZero = allZero && v == 0
	}
	switch {
	case hasNaN:
		if !math.IsNaN(got) {
			t.Fatalf("%s = %v, want NaN for %v", what, got, x)
		}
	case hasInf:
		if !math.IsInf(got, 1) {
			t.Fatalf("%s = %v, want +Inf for %v", what, got, x)
		}
	case allZero:
		if math.Float64bits(got) != 0 {
			t.Fatalf("%s = %v, want +0 for %v", what, got, x)
		}
	default:
		normWithin(t, what, got, mattest.Norm2(x), fastNorm2Depth(len(x)), 0)
	}
}

func allFinite(vs ...[]float64) bool {
	for _, v := range vs {
		for _, e := range v {
			if math.IsNaN(e) || math.IsInf(e, 0) {
				return false
			}
		}
	}
	return true
}

func FuzzFastNorm2(f *testing.F) {
	// Seeds: ±1e±300, subnormals, signed zeros, 1e200 mixed with 1e−200,
	// non-finite entries, and the lengths 0, 1, 3, 5 (tails of the
	// unrolled loop) next to one full 8-wide chunk plus a tail.
	seeds := []struct {
		alpha float64
		x, y  []float64
	}{
		{1, nil, nil},
		{0.5, []float64{1e300}, []float64{-1e300}},
		{-2, []float64{1e300, -1e300, 1e300}, []float64{1e-300, -1e-300, 1e-300}},
		{3, []float64{1e-300, -1e-300, 1e-300, 1e-300, -1e-300}, []float64{1e-300, 1e-300, -1e-300, 1e-300, 1e-300}},
		{1e-10, []float64{5e-324, -5e-324, 0x1p-1060}, []float64{-2.5e-320, 5e-324, 0x1p-1070}},
		{1, []float64{0, math.Copysign(0, -1), 0}, []float64{math.Copysign(0, -1), 0, math.Copysign(0, -1)}},
		{-1, []float64{1e200, 1e-200, -1e200, 1e-200, 1, 1e-200, 1e200, -1e-200, 2},
			[]float64{1e-200, 1e200, 1e-200, -1e200, 1e-200, 3, 1e-200, 1e200, 1e-200}},
		{2, []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, []float64{-1, -2, -3, -4, -5, -6, -7, -8, -9, -10, -11}},
		{1, []float64{math.Inf(1), 1, math.Inf(-1)}, []float64{1, 2, 3}},
		{1, []float64{math.NaN(), math.Inf(1), 1}, []float64{1, 2, 3}},
		{math.Inf(1), []float64{1, 0, -1}, []float64{1, 1, 1}},
	}
	for _, s := range seeds {
		f.Add(fuzzBytes(s.x, s.y), s.alpha)
	}
	f.Fuzz(func(t *testing.T, data []byte, alpha float64) {
		if len(data) > 8*4096 {
			data = data[:8*4096]
		}
		x, y := fuzzFloats(data)
		checkNorm(t, "FastNorm2(x)", FastNorm2(x), x)

		// AxpyNorm2 is Axpy followed by FastNorm2, bit for bit, so the
		// same checks hold on the updated y.
		want := CopyVec(y)
		Axpy(alpha, x, want)
		got := CopyVec(y)
		r := AxpyNorm2(alpha, x, got)
		sameBits(t, "AxpyNorm2 y", got, want)
		if n := FastNorm2(want); math.Float64bits(r) != math.Float64bits(n) && !(math.IsNaN(r) && math.IsNaN(n)) {
			t.Fatalf("AxpyNorm2 = %v, Axpy then FastNorm2 = %v", r, n)
		}
		checkNorm(t, "AxpyNorm2", r, want)
		if allFinite(x, y, []float64{alpha}, want) {
			normWithin(t, "AxpyNorm2 against the exact update", r, mattest.AxpyNorm2(alpha, x, y),
				fastNorm2Depth(len(y)), axpySlack(alpha, x, y))
		}
	})
}
