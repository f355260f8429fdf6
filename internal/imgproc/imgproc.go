// Package imgproc provides the reconstruction-quality metrics the denoising
// and super-resolution applications report (§VIII-D2): MSE, PSNR and the
// relative ℓ₂ error.
package imgproc

import (
	"math"

	"extdict/internal/mat"
)

// MSE returns the mean squared error between two equal-length signals.
func MSE(ref, test []float64) float64 {
	if len(ref) != len(test) {
		panic("imgproc: MSE length mismatch")
	}
	if len(ref) == 0 {
		return 0
	}
	var s float64
	for i, r := range ref {
		d := r - test[i]
		s += d * d
	}
	return s / float64(len(ref))
}

// PSNR returns the peak signal-to-noise ratio in dB:
// 10·log₁₀(MAX²/MSE), the metric the paper reports for reconstruction
// quality (≥25 dB recommended, §VIII-D2). maxVal is the peak signal value;
// pass 0 to use the reference's max |value|.
func PSNR(ref, test []float64, maxVal float64) float64 {
	mse := MSE(ref, test)
	if mse == 0 {
		return math.Inf(1)
	}
	if maxVal <= 0 {
		for _, v := range ref {
			if a := math.Abs(v); a > maxVal {
				maxVal = a
			}
		}
	}
	return 10 * math.Log10(maxVal*maxVal/mse)
}

// RelError returns ‖ref - test‖₂/‖ref‖₂, the paper's learning-error metric
// for the reconstruction applications.
func RelError(ref, test []float64) float64 {
	if len(ref) != len(test) {
		panic("imgproc: RelError length mismatch")
	}
	diff := make([]float64, len(ref))
	mat.SubVec(diff, ref, test)
	d := mat.Norm2(ref)
	if d == 0 {
		return 0
	}
	return mat.Norm2(diff) / d
}
