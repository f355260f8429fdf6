package exd

import (
	"math"
	"testing"

	"extdict/internal/mat"
	"extdict/internal/mat/mattest"
	"extdict/internal/rng"
)

func TestRelErrorWithinForwardErrorBound(t *testing.T) {
	// RelError against a double-double evaluation of ‖A − D·C‖_F/‖A‖_F,
	// within the bound mattest.RelError derives term by term, at every
	// worker count. The near-exact case puts A within 2⁻⁴⁰ relative of D·C,
	// so every deviation is a cancellation of nearly equal numbers.
	u := testUnion(t, 130, 1200, []int{6, 9}, 12)
	tr, err := Fit(u.A, Params{L: 90, Epsilon: 0.1, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(28)
	near := tr.Reconstruct()
	for i := range near.Data {
		near.Data[i] *= 1 + math.Ldexp(r.NormFloat64(), -40)
	}
	wide := u.A.Clone()
	for i := range wide.Data {
		wide.Data[i] = math.Ldexp(wide.Data[i], r.Intn(41)-20)
	}
	defer func(w int) { mat.Workers = w }(mat.Workers)
	for _, c := range []struct {
		name string
		a    *mat.Dense
	}{{"data", u.A}, {"near-exact", near}, {"wide", wide}} {
		ref := mattest.RelError(c.a.Rows, c.a.Cols, tr.D.Cols, c.a.Data, tr.D.Data,
			tr.C.ColPtr, tr.C.RowIdx, tr.C.Val)
		for _, w := range []int{1, 2, 3} {
			mat.Workers = w
			got := tr.RelError(c.a)
			if e := math.Abs(mattest.DD{Hi: got}.Sub(ref.Val).Float()); !(e <= ref.Bound) {
				t.Fatalf("%s, Workers=%d: RelError %v, reference %v: error %.3g exceeds bound %.3g",
					c.name, w, got, ref.Val.Float(), e, ref.Bound)
			}
		}
	}
}
