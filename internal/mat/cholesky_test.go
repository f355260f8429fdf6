package mat

import (
	"math"
	"testing"
	"testing/quick"

	"extdict/internal/rng"
)

// randomSPD returns a random symmetric positive definite n×n matrix.
func randomSPD(r *rng.RNG, n int) *Dense {
	b := randomDense(r, n+3, n)
	g := ATA(b)
	for i := 0; i < n; i++ {
		g.Set(i, i, g.At(i, i)+0.1) // ensure strict positive definiteness
	}
	return g
}

func TestCholeskyFactorizeSolve(t *testing.T) {
	r := rng.New(21)
	for _, n := range []int{1, 2, 3, 8, 20} {
		s := randomSPD(r, n)
		ch := NewCholesky(n)
		if err := ch.Factorize(s); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		b := s.MulVec(x, nil)
		ch.SolveInPlace(b)
		for i := range x {
			if math.Abs(b[i]-x[i]) > 1e-8 {
				t.Fatalf("n=%d: solve error %v at %d", n, math.Abs(b[i]-x[i]), i)
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	s := NewDenseData(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	ch := NewCholesky(2)
	if err := ch.Factorize(s); err != ErrNotPositiveDefinite {
		t.Fatalf("got %v, want ErrNotPositiveDefinite", err)
	}
}

func TestCholeskyAppendMatchesBatch(t *testing.T) {
	r := rng.New(22)
	const n = 12
	s := randomSPD(r, n)

	inc := NewCholesky(2) // deliberately small to exercise growth
	for k := 0; k < n; k++ {
		col := make([]float64, k)
		for j := 0; j < k; j++ {
			col[j] = s.At(k, j)
		}
		if err := inc.Append(col, s.At(k, k)); err != nil {
			t.Fatalf("Append step %d: %v", k, err)
		}
	}

	batch := NewCholesky(n)
	if err := batch.Factorize(s); err != nil {
		t.Fatal(err)
	}

	if inc.Size() != n || batch.Size() != n {
		t.Fatal("size mismatch")
	}
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(inc.at(i, j)-batch.at(i, j)) > 1e-9 {
				t.Fatalf("factor mismatch at (%d,%d): %v vs %v",
					i, j, inc.at(i, j), batch.at(i, j))
			}
		}
	}
}

func TestCholeskyAppendDetectsDependence(t *testing.T) {
	// Second atom identical to the first: Gram matrix singular.
	ch := NewCholesky(2)
	if err := ch.Append(nil, 1); err != nil {
		t.Fatal(err)
	}
	if err := ch.Append([]float64{1}, 1); err != ErrNotPositiveDefinite {
		t.Fatalf("got %v, want ErrNotPositiveDefinite", err)
	}
	if ch.Size() != 1 {
		t.Fatal("failed Append must not grow the factor")
	}
}

func TestCholeskyReset(t *testing.T) {
	ch := NewCholesky(4)
	if err := ch.Append(nil, 4); err != nil {
		t.Fatal(err)
	}
	ch.Reset()
	if ch.Size() != 0 {
		t.Fatal("Reset did not empty the factor")
	}
	if err := ch.Append(nil, 9); err != nil {
		t.Fatal(err)
	}
	b := []float64{18}
	ch.SolveInPlace(b)
	if math.Abs(b[0]-2) > 1e-12 {
		t.Fatalf("solve after reset = %v, want 2", b[0])
	}
}

func TestSolveLeastSquaresExact(t *testing.T) {
	// Overdetermined consistent system: recover x exactly.
	r := rng.New(23)
	a := randomDense(r, 20, 6)
	x := make([]float64, 6)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	b := a.MulVec(x, nil)
	got, err := SolveLeastSquares(a, b, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(got[i]-x[i]) > 1e-8 {
			t.Fatalf("least squares error at %d: %v vs %v", i, got[i], x[i])
		}
	}
}

func TestSolveLeastSquaresResidualOrthogonality(t *testing.T) {
	// Property: at the minimizer, Aᵀ(Ax - b) = 0.
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) + 1)
		m, n := 10+r.Intn(20), 2+r.Intn(6)
		a := randomDense(r, m, n)
		b := make([]float64, m)
		for i := range b {
			b[i] = r.NormFloat64()
		}
		x, err := SolveLeastSquares(a, b, 0)
		if err != nil {
			return true // singular by chance: skip
		}
		res := a.MulVec(x, nil)
		SubVec(res, res, b)
		grad := a.MulVecT(res, nil)
		return NormInf(grad) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkCholeskyAppend64(b *testing.B) {
	r := rng.New(1)
	const n = 64
	s := randomSPD(r, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ch := NewCholesky(n)
		for k := 0; k < n; k++ {
			col := make([]float64, k)
			for j := 0; j < k; j++ {
				col[j] = s.At(k, j)
			}
			if err := ch.Append(col, s.At(k, k)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func TestForwardNextMatchesSolveInPlace(t *testing.T) {
	// Growing y = L⁻¹b by ForwardNext after each Append, then
	// BackSolveInPlace, gives SolveInPlace's solution bit for bit at every
	// size.
	r := rng.New(23)
	const n = 30
	s := randomSPD(r, n)
	b := make([]float64, n)
	for i := range b {
		b[i] = r.NormFloat64()
	}
	inc := NewCholesky(2)
	y := make([]float64, 0, n)
	for k := 0; k < n; k++ {
		col := make([]float64, k)
		for j := range col {
			col[j] = s.At(k, j)
		}
		if err := inc.Append(col, s.At(k, k)); err != nil {
			t.Fatal(err)
		}
		y = append(y, inc.ForwardNext(y, b[k]))

		want := CopyVec(b[:k+1])
		inc.SolveInPlace(want)
		got := CopyVec(y)
		inc.BackSolveInPlace(got)
		sameBits(t, "ForwardNext+BackSolveInPlace", got, want)
	}
	for _, f := range []func(){
		func() { inc.ForwardNext(make([]float64, n), 1) },
		func() { inc.BackSolveInPlace(make([]float64, n-1)) },
	} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatal("a length mismatch did not panic")
				}
			}()
			f()
		}()
	}
}
