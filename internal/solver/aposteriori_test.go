package solver

import (
	"math"
	"testing"

	"extdict/internal/cluster"
	"extdict/internal/dataset"
	"extdict/internal/dist"
	"extdict/internal/mat"
	"extdict/internal/mat/mattest"
	"extdict/internal/rng"
	"extdict/internal/sparse"
	"extdict/internal/tune"
)

// refGramDense returns AᵀA·v through the double-double reference kernels.
func refGramDense(a *mat.Dense, v []float64) []mattest.Sum {
	av := mattest.Vals(mattest.MulVec(a.Rows, a.Cols, a.Stride, a.Data, v))
	return mattest.MulVecT(a.Rows, a.Cols, a.Stride, a.Data, av)
}

// refGramExD returns (DC)ᵀDC·v through the double-double reference kernels.
func refGramExD(d *mat.Dense, c *sparse.CSC, v []float64) []mattest.Sum {
	cv := mattest.Vals(mattest.CSCMulVec(c.Rows, c.ColPtr, c.RowIdx, c.Val, v))
	dcv := mattest.Vals(mattest.MulVec(d.Rows, d.Cols, d.Stride, d.Data, cv))
	dtdcv := mattest.Vals(mattest.MulVecT(d.Rows, d.Cols, d.Stride, d.Data, dcv))
	return mattest.CSCMulVecT(c.Cols, c.ColPtr, c.RowIdx, c.Val, dtdcv)
}

// residual returns ‖G·v − λ·v‖/λ for G·v given by gv.
func residual(gv []mattest.Sum, lambda float64, v []float64) float64 {
	r := make([]mattest.DD, len(v))
	for i, s := range gv {
		r[i] = s.Val.Sub(mattest.FromProd(lambda, v[i]))
	}
	return mattest.Norm(r).Float() / lambda
}

func TestPowerMethodResidualsWithinTolerance(t *testing.T) {
	// The eigenpairs PowerMethod returns on the dense and ExD Gram
	// operators of all three presets satisfy G·v ≈ λ·v, with the residual
	// measured by the double-double reference kernels on the undeflated G.
	//
	// The bound scales like √Tol, not Tol. The iteration stops once λ, the
	// norm of the deflated G·x, changes by at most Tol·λ in a step. Write
	// the iterate as Σⱼ cⱼvⱼ around the sought eigenvector v₀, with ratios
	// ρⱼ = λⱼ/λ₀ < 1. To first order in the cⱼ, a step changes λ by
	// ½λ·Σⱼ(1−ρⱼ²)²cⱼ², so at the stop Σⱼ(1−ρⱼ²)²cⱼ² ≤ 2·Tol: the error of
	// λ is O(Σcⱼ²) while that of the vector is O(‖c‖), and the eigenvalue
	// converges twice as fast. The iterate returned, one step later, has
	// residual ‖G·x − λ·x‖² = λ²·Σⱼ ρⱼ⁴(1−ρⱼ)²cⱼ², and since
	// ρ⁴(1−ρ)² ≤ ¼(1−ρ²)² on [0, 1], that is at most λ²·Tol/2 whatever
	// the spectral gap: a small gap slows λ's convergence as much as the
	// vector's. Component k also inherits, through the deflation, the part
	// of each earlier component's residual that lies along it, at most
	// λᵢ·√(Tol/2) each and orthogonal to its own, so to first order
	//
	//	‖G·vₖ − λₖ·vₖ‖/λₖ ≤ √(Tol/2) · √(λ₀² + … + λₖ²) / λₖ.
	//
	// The test allows 1.5 times that for the higher-order terms, at the
	// Tol of fig10 (1e-6), of fig12 (1e-8) and a tighter 1e-10.
	const k = 6
	plat := cluster.NewPlatform(1, 4)
	for _, name := range dataset.PresetNames() {
		p, err := dataset.Preset(name, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		u, err := dataset.GenerateUnion(p, rng.New(uint64(len(name))))
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := tune.TuneAndFit(u.A, plat, tune.Config{Epsilon: 0.1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		exdOp, err := dist.NewExDGram(cluster.NewComm(plat), tr.D, tr.C)
		if err != nil {
			t.Fatal(err)
		}
		denseOp := dist.NewDenseGram(cluster.NewComm(plat), u.A)
		for _, tol := range []float64{1e-6, 1e-8, 1e-10} {
			opts := PowerOpts{Components: k, Tol: tol, MaxIters: 20000, Seed: 9}
			for _, c := range []struct {
				op   string
				res  PowerResult
				gram func(v []float64) []mattest.Sum
			}{
				{"dense", PowerMethod(denseOp, opts),
					func(v []float64) []mattest.Sum { return refGramDense(u.A, v) }},
				{"exd", PowerMethod(exdOp, opts),
					func(v []float64) []mattest.Sum { return refGramExD(tr.D, tr.C, v) }},
			} {
				var sumSq float64
				for comp, lambda := range c.res.Eigenvalues {
					sumSq += lambda * lambda
					bound := 1.5 * math.Sqrt(tol/2) * math.Sqrt(sumSq) / lambda
					v := c.res.Eigenvectors.Col(comp, nil)
					rel := residual(c.gram(v), lambda, v)
					if !(rel <= bound) {
						t.Errorf("%s %s Tol=%g component %d: ‖Gv − λv‖/λ = %.3g exceeds %.3g",
							name, c.op, tol, comp, rel, bound)
					}
				}
			}
		}
	}
}

func TestLassoMeetsOptimalityConditions(t *testing.T) {
	// Fig. 9's 1×4 denoising cell at the golden's scale: a noisy
	// light-field patch coded against 256 clean ones, column-normalized,
	// through the ExD operator tuned for the platform at ε = 0.1, with
	// fig9's λ (5% of ‖Aᵀy‖∞), Tol and 800-iteration cap. The conditions
	// are checked on the problem the solve runs, G = (DC)ᵀDC with b = Aᵀy.
	//
	// τ = 0.6 on the nonzero entries: this solve ends at its cap, not at
	// Tol. Adagrad's steps shrink like 1/√t, and at iteration 800 the
	// objective still falls by about 1e-4 of itself per step; the largest
	// gradient mismatch, 0.55·λ, sits on the largest entry. The zero
	// entries meet their condition outright (τ = 0; the worst |gᵢ| is 0.9·λ).
	lf, err := dataset.GenerateLightField(dataset.LightFieldParams{
		Grid: 5, Patch: 8, NumSources: 16, SceneSize: 192, NumPatches: 257,
	}, rng.New(0xdf))
	if err != nil {
		t.Fatal(err)
	}
	n := lf.A.Cols - 1
	a := lf.A.ColRange(0, n).Clone()
	a.NormalizeColumns()
	y := dataset.AddNoise(lf.A.Col(n, nil), 20, rng.New(0xd1))
	aty := a.MulVecT(y, nil)
	lambda := 0.05 * mat.NormInf(aty)
	plat := cluster.NewPlatform(1, 4)
	tr, _, err := tune.TuneAndFit(a, plat, tune.Config{Epsilon: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	op, err := dist.NewExDGram(cluster.NewComm(plat), tr.D, tr.C)
	if err != nil {
		t.Fatal(err)
	}
	res := Lasso(op, aty, mat.Dot(y, y), LassoOpts{Lambda: lambda, MaxIters: 800, Tol: 1e-6})
	zero, active := mattest.LassoViolation(refGramExD(tr.D, tr.C, res.X), aty, res.X, lambda)
	if zero > 0 || active > 0.6 {
		t.Fatalf("optimality violated: zero entries |g|/λ − 1 = %.3g (τ = 0), active |g + λ·sign(x)|/λ = %.3g (τ = 0.6)",
			zero, active)
	}
}
