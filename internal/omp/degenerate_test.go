package omp

import (
	"math"
	"testing"

	"extdict/internal/mat"
	"extdict/internal/rng"
)

// setUnitCol writes v scaled to unit norm into column j of d.
func setUnitCol(d *mat.Dense, j int, v []float64) {
	u := mat.CopyVec(v)
	mat.ScaleVec(1/mat.Norm2(u), u)
	d.SetCol(j, u)
}

// degenerateDictionaries returns over-complete (L > M) dictionaries with
// the defects that break a naive OMP: a duplicated atom, a zero atom,
// near-collinear pairs, a rank-deficient span, and all of the first three
// at once.
func degenerateDictionaries(r *rng.RNG) []namedDict {
	dup := unitDictionary(r, 12, 30)
	dup.SetCol(17, dup.Col(3, nil))

	zero := unitDictionary(r, 12, 30)
	zero.SetCol(4, make([]float64, 12))

	nearPair := func(d *mat.Dense, j int, gap float64) {
		v := d.Col(j-1, nil)
		for i := range v {
			v[i] += gap * r.NormFloat64()
		}
		setUnitCol(d, j, v)
	}
	collinear := unitDictionary(r, 12, 30)
	nearPair(collinear, 9, 1e-7)
	nearPair(collinear, 21, 1e-13)

	// Thirty unit atoms in a 5-dimensional subspace of R¹².
	basis := unitDictionary(r, 12, 5)
	lowRank := mat.NewDense(12, 30)
	for j := 0; j < 30; j++ {
		w := make([]float64, 5)
		for i := range w {
			w[i] = r.NormFloat64()
		}
		setUnitCol(lowRank, j, basis.MulVec(w, nil))
	}

	all := unitDictionary(r, 16, 64)
	all.SetCol(40, all.Col(7, nil))
	all.SetCol(11, make([]float64, 16))
	nearPair(all, 30, 1e-9)
	nearPair(all, 51, 1e-14)

	return []namedDict{
		{"duplicate", dup}, {"zero", zero}, {"collinear", collinear},
		{"rank-deficient", lowRank}, {"all", all},
	}
}

type namedDict struct {
	name string
	d    *mat.Dense
}

// degenerateSignals returns the columns to code against d: random signals,
// a signal that is atom 0 itself, the difference of atoms 0 and 1 (badly
// conditioned when they are near-collinear), and a zero signal.
func degenerateSignals(r *rng.RNG, d *mat.Dense) *mat.Dense {
	const random = 2 * panelWidth
	a := mat.NewDense(d.Rows, random+3)
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < random; j++ {
			a.Set(i, j, r.NormFloat64())
		}
		a.Set(i, random, d.At(i, 0))
		a.Set(i, random+1, d.At(i, 0)-d.At(i, 1))
	}
	return a
}

// stopReason says why Encode stopped with code res for signal a: "tol"
// once the residual meets the tolerance (at the rounding floor the coder
// clamps it to), "cap" at the support cap, "orthogonal" when no unselected
// atom correlates with the residual, and "chol" when the atom the greedy
// rule would add next makes the support's Gram matrix singular. It replays
// that rule with the coder's own operations, so the replay is exact. ""
// means none holds: the coder stopped without cause.
func stopReason(bc *BatchCoder, a []float64, res Result, tol float64, maxAtoms int) string {
	m, l := bc.D.Rows, bc.D.Cols
	norm2 := mat.Dot(a, a)
	target2 := max(tol*tol*norm2, 8*0x1p-52*float64(m)*norm2)
	switch {
	case res.Resid2 <= target2:
		return "tol"
	case res.Iters == bc.atomCap(maxAtoms):
		return "cap"
	}
	alpha := bc.D.MulVecT(a, nil)
	selected := make([]bool, l)
	chol := mat.NewCholesky(bc.atomCap(maxAtoms) + 1)
	cross := func(j int) []float64 {
		g := bc.gramRow(j)
		c := make([]float64, 0, len(res.Idx))
		for _, s := range res.Idx {
			if selected[s] {
				c = append(c, g[s])
			}
		}
		return c
	}
	for i, j := range res.Idx {
		if err := chol.Append(cross(j), bc.gramRow(j)[j]); err != nil {
			return "" // the code's own support must factor
		}
		selected[j] = true
		if res.Coef[i] != 0 {
			mat.Axpy(-res.Coef[i], bc.gramRow(j), alpha)
		}
	}
	best, bestAbs := -1, 0.0
	for j, v := range alpha {
		if !selected[j] && math.Abs(v) > bestAbs {
			best, bestAbs = j, math.Abs(v)
		}
	}
	if best < 0 {
		return "orthogonal"
	}
	if chol.Append(cross(best), bc.gramRow(best)[best]) != nil {
		return "chol"
	}
	return ""
}

// TestEncodeDegenerateDictionaries is the robustness property for
// rank-deficient and badly conditioned dictionaries: every code from
// Encode is finite, with distinct in-range atoms, and either meets the
// tolerance or stops at the support cap, at a Cholesky failure, or with
// the residual orthogonal to every remaining atom. The panel path of
// EncodeColumnsAt returns the same codes bit for bit at any worker count.
func TestEncodeDegenerateDictionaries(t *testing.T) {
	r := rng.New(0xdec0de)
	reasons := map[string]int{}
	for _, nd := range degenerateDictionaries(r) {
		name, d := nd.name, nd.d
		bc := NewBatchCoder(d)
		a := degenerateSignals(r, d)
		for _, tol := range []float64{1e-12, 0.05, 0.3} {
			for _, maxAtoms := range []int{0, 4} {
				want := perColumn(bc, a, tol, maxAtoms)
				col := make([]float64, a.Rows)
				for j, res := range want {
					a.Col(j, col)
					if !finite(res.Coef) || !finite([]float64{res.Resid2, res.Norm2}) {
						t.Fatalf("%s tol=%g cap=%d column %d: non-finite code %+v", name, tol, maxAtoms, j, res)
					}
					seen := make(map[int]bool, len(res.Idx))
					for _, k := range res.Idx {
						if k < 0 || k >= d.Cols || seen[k] {
							t.Fatalf("%s tol=%g cap=%d column %d: support %v repeats or leaves [0, %d)", name, tol, maxAtoms, j, res.Idx, d.Cols)
						}
						seen[k] = true
					}
					why := stopReason(bc, col, res, tol, maxAtoms)
					if why == "" {
						t.Fatalf("%s tol=%g cap=%d column %d: stopped at %d atoms with Resid2 %g of %g, below the cap and with an atom left to add",
							name, tol, maxAtoms, j, res.Iters, res.Resid2, res.Norm2)
					}
					reasons[why]++
				}
				for _, workers := range []int{1, 2, 3} {
					got := make([]Result, a.Cols)
					bc.EncodeColumnsAt(a, r.Perm(a.Cols), tol, maxAtoms, workers, got)
					for j := range got {
						if diff := codeDiff(got[j], want[j]); diff != "" {
							t.Fatalf("%s tol=%g cap=%d, %d workers, column %d: panel path %s", name, tol, maxAtoms, workers, j, diff)
						}
					}
				}
			}
		}
	}
	// The inputs must reach every regime the property covers.
	for _, why := range []string{"tol", "cap", "chol"} {
		if reasons[why] == 0 {
			t.Errorf("no code stopped for reason %q; stop reasons %v", why, reasons)
		}
	}
}

func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
