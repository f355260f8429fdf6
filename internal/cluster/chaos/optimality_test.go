package chaos

import (
	"testing"

	"extdict/internal/mat/mattest"
)

func TestLassoMeetsOptimalityConditions(t *testing.T) {
	// Every fault-free LASSO solve of the chaos scenarios meets the ℓ₁
	// optimality conditions of min ‖Ax − y‖² + λ‖x‖₁ within τ = 0.01, with
	// the gradient 2(AᵀA·x − Aᵀy) taken through the double-double
	// reference kernels.
	//
	// The solve stops on the objective's relative change (Tol = 1e-12,
	// five times running), not on the gradient. The objective is flat to
	// second order at the minimizer, so a gap of δ in it leaves a gradient
	// mismatch of order √(‖AᵀA‖·δ): about 1e-4 of λ here, and at most
	// 1.8e-3 of λ over the 24 seeds. τ allows five times that.
	const tau = 0.01
	for seed := uint64(1); seed <= chaosSeeds; seed++ {
		s := NewLassoScenario(seed, DefaultConfig())
		res := s.FaultFree()
		ax := mattest.Vals(mattest.MulVec(s.a.Rows, s.a.Cols, s.a.Stride, s.a.Data, res.X))
		gx := mattest.MulVecT(s.a.Rows, s.a.Cols, s.a.Stride, s.a.Data, ax)
		zero, active := mattest.LassoViolation(gx, s.aty, res.X, s.opts.Lambda)
		if zero > tau || active > tau {
			t.Fatalf("seed %d: optimality violated by %.3g on the zero entries, %.3g on the others (τ = %g)",
				seed, zero, active, tau)
		}
	}
}
