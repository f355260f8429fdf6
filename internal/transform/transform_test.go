package transform

import (
	"math"
	"testing"

	"extdict/internal/dataset"
	"extdict/internal/mat"
	"extdict/internal/rng"
)

// relError returns ‖A - D·C‖_F/‖A‖_F against the given data.
func relError(r *Result, a *mat.Dense) float64 {
	if a.Rows != r.D.Rows || a.Cols != r.C.Cols {
		panic("transform: relError shape mismatch")
	}
	var num, den float64
	rec := make([]float64, a.Rows)
	col := make([]float64, a.Rows)
	for j := 0; j < a.Cols; j++ {
		mat.Zero(rec)
		for p := r.C.ColPtr[j]; p < r.C.ColPtr[j+1]; p++ {
			atom, v := r.C.RowIdx[p], r.C.Val[p]
			for i := range rec {
				rec[i] += v * r.D.At(i, atom)
			}
		}
		a.Col(j, col)
		for i := range col {
			d := col[i] - rec[i]
			num += d * d
			den += col[i] * col[i]
		}
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}

func unionData(t testing.TB, m, n int, ks []int, seed uint64) *mat.Dense {
	t.Helper()
	u, err := dataset.GenerateUnion(dataset.UnionParams{M: m, N: n, Ks: ks}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return u.A
}

func methods() []Method {
	return []Method{RCSS{}, OASIS{}, RankMap{Workers: 2}}
}

func TestMethodsMeetErrorCriterion(t *testing.T) {
	a := unionData(t, 32, 200, []int{4, 5}, 1)
	for _, m := range methods() {
		for _, eps := range []float64{0.2, 0.1, 0.05} {
			res, err := m.Fit(a, eps, rng.New(2))
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			if got := relError(res, a); got > eps+1e-6 {
				t.Errorf("%s eps=%v: achieved %v", m.Name(), eps, got)
			}
			if err := res.C.Check(); err != nil {
				t.Errorf("%s: malformed C: %v", m.Name(), err)
			}
			if res.C.Rows != res.D.Cols || res.C.Cols != a.Cols {
				t.Errorf("%s: C shape %dx%d for L=%d", m.Name(), res.C.Rows, res.C.Cols, res.D.Cols)
			}
		}
	}
}

func TestOASISNeedsNoMoreColumnsThanRCSS(t *testing.T) {
	// Adaptive selection is the point of oASIS: it should reach the error
	// criterion with at most as many columns as random selection (allowing
	// small sampling noise).
	a := unionData(t, 40, 300, []int{5, 6, 7}, 3)
	const eps = 0.05
	rc, err := RCSS{}.Fit(a, eps, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	oa, err := OASIS{}.Fit(a, eps, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if oa.D.Cols > rc.D.Cols+2 {
		t.Fatalf("oASIS used %d columns, RCSS %d", oa.D.Cols, rc.D.Cols)
	}
}

func TestRankMapSparserThanRCSS(t *testing.T) {
	// RankMap's OMP coding must store far fewer coefficients than the
	// dense least-squares C of RCSS at the same error.
	a := unionData(t, 32, 250, []int{3, 4}, 5)
	const eps = 0.1
	rc, err := RCSS{}.Fit(a, eps, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	rm, err := RankMap{}.Fit(a, eps, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if !rc.DenseC || rm.DenseC {
		t.Fatal("DenseC flags wrong")
	}
	if rm.C.NNZ() >= rc.C.NNZ() {
		t.Fatalf("RankMap nnz %d not below RCSS %d", rm.C.NNZ(), rc.C.NNZ())
	}
}

func TestMemoryWordsAccounting(t *testing.T) {
	a := unionData(t, 24, 100, []int{3}, 7)
	rc, err := RCSS{}.Fit(a, 0.1, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	wantDense := 24*rc.D.Cols + rc.D.Cols*100
	if rc.MemoryWords() != wantDense {
		t.Fatalf("dense memory %d, want %d", rc.MemoryWords(), wantDense)
	}
	rm, err := RankMap{}.Fit(a, 0.1, rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	wantSparse := 24*rm.D.Cols + 2*rm.C.NNZ() + 100 + 1
	if rm.MemoryWords() != wantSparse {
		t.Fatalf("sparse memory %d, want %d", rm.MemoryWords(), wantSparse)
	}
}

func TestSelectColumnsStopsOnLowRankData(t *testing.T) {
	// Exact rank-3 data: selection must stop after ~3 columns for any
	// reasonable eps, even with eps=0 plus numerical slack.
	a := unionData(t, 20, 80, []int{3}, 9)
	picked := selectColumns(a, 1e-6, func(res2 []float64, _ int) int {
		best, bestV := -1, 0.0
		for j, v := range res2 {
			if v > bestV {
				best, bestV = j, v
			}
		}
		return best
	})
	if len(picked) > 5 {
		t.Fatalf("selected %d columns from rank-3 data", len(picked))
	}
}

func TestMethodsDeterministicPerSeed(t *testing.T) {
	a := unionData(t, 20, 120, []int{3, 3}, 10)
	for _, m := range methods() {
		r1, err := m.Fit(a, 0.1, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := m.Fit(a, 0.1, rng.New(11))
		if err != nil {
			t.Fatal(err)
		}
		if r1.D.Cols != r2.D.Cols || r1.C.NNZ() != r2.C.NNZ() {
			t.Fatalf("%s not deterministic", m.Name())
		}
	}
}

func TestNames(t *testing.T) {
	want := map[string]bool{"RCSS": true, "oASIS": true, "RankMap": true}
	for _, m := range methods() {
		if !want[m.Name()] {
			t.Fatalf("unexpected name %q", m.Name())
		}
	}
}
