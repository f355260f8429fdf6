package imgproc

import (
	"math"
	"testing"

	"extdict/internal/rng"
)

func TestMSEAndPSNR(t *testing.T) {
	ref := []float64{1, 2, 3, 4}
	if MSE(ref, ref) != 0 {
		t.Fatal("MSE of identical signals")
	}
	if !math.IsInf(PSNR(ref, ref, 0), 1) {
		t.Fatal("PSNR of identical signals must be +Inf")
	}
	test := []float64{1, 2, 3, 6}
	if got := MSE(ref, test); got != 1 {
		t.Fatalf("MSE %v, want 1", got)
	}
	// PSNR with max 4: 10·log10(16/1).
	if got := PSNR(ref, test, 0); math.Abs(got-10*math.Log10(16)) > 1e-12 {
		t.Fatalf("PSNR %v", got)
	}
	if got := PSNR(ref, test, 10); math.Abs(got-20) > 1e-12 {
		t.Fatalf("PSNR with explicit max %v, want 20", got)
	}
}

func TestRelError(t *testing.T) {
	ref := []float64{3, 4}
	test := []float64{3, 0}
	if got := RelError(ref, test); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("RelError %v, want 0.8", got)
	}
	if RelError([]float64{0, 0}, []float64{0, 0}) != 0 {
		t.Fatal("zero-ref RelError")
	}
}

func TestPSNRImprovesWithLessNoise(t *testing.T) {
	r := rng.New(1)
	ref := make([]float64, 1000)
	for i := range ref {
		ref[i] = r.NormFloat64()
	}
	mk := func(sigma float64) []float64 {
		out := make([]float64, len(ref))
		for i := range out {
			out[i] = ref[i] + sigma*r.NormFloat64()
		}
		return out
	}
	if PSNR(ref, mk(0.01), 0) <= PSNR(ref, mk(0.2), 0) {
		t.Fatal("PSNR not monotone in noise level")
	}
}
