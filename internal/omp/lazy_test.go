package omp

import (
	"math"
	"testing"

	"extdict/internal/mat"
	"extdict/internal/rng"
)

// withLazyGram lowers the precompute threshold so the lazy Gram-row path
// runs at test sizes, restoring it afterwards.
func withLazyGram(t *testing.T, limit, cacheFloats int, body func()) {
	t.Helper()
	oldLimit, oldCache := gramPrecomputeLimit, maxLazyCacheFloats
	gramPrecomputeLimit, maxLazyCacheFloats = limit, cacheFloats
	defer func() {
		gramPrecomputeLimit, maxLazyCacheFloats = oldLimit, oldCache
	}()
	body()
}

func TestLazyGramMatchesPrecomputed(t *testing.T) {
	r := rng.New(51)
	d := unitDictionary(r, 24, 64)
	sigs := make([][]float64, 20)
	for k := range sigs {
		sigs[k] = make([]float64, 24)
		for i := range sigs[k] {
			sigs[k][i] = r.NormFloat64()
		}
	}

	eager := NewBatchCoder(d)
	if eager.g == nil {
		t.Fatal("expected precomputed Gram at this size")
	}
	var lazy *BatchCoder
	withLazyGram(t, 8, 1<<20, func() {
		lazy = NewBatchCoder(d)
	})
	if lazy.g != nil {
		t.Fatal("expected lazy Gram")
	}

	for k, sig := range sigs {
		a := eager.Encode(sig, 0.1, 0, nil)
		b := lazy.Encode(sig, 0.1, 0, nil)
		if len(a.Idx) != len(b.Idx) {
			t.Fatalf("signal %d: support sizes differ", k)
		}
		for i := range a.Idx {
			if a.Idx[i] != b.Idx[i] || math.Abs(a.Coef[i]-b.Coef[i]) > 1e-10 {
				t.Fatalf("signal %d: codes differ at %d", k, i)
			}
		}
	}
	if lazy.cached == 0 {
		t.Fatal("lazy path cached nothing")
	}
}

func TestLazyGramCacheBudget(t *testing.T) {
	r := rng.New(52)
	d := unitDictionary(r, 16, 48)
	a := mat.NewDense(16, 30)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	withLazyGram(t, 8, 100, func() { // budget: ~2 rows of 48 floats
		lazy := NewBatchCoder(d)
		c, _ := lazy.EncodeColumns(a, 0.05, 0, 2)
		if err := c.Check(); err != nil {
			t.Fatal(err)
		}
		if lazy.cached > 100 {
			t.Fatalf("cache exceeded budget: %d floats", lazy.cached)
		}
		// Results over budget must still satisfy the tolerance.
		rec := mat.NewDense(d.Rows, c.Cols)
		mat.MulTo(rec, d, c.Dense())
		mat.SubVec(rec.Data, rec.Data, a.Data)
		if mat.Norm2(rec.Data) > 0.05*mat.Norm2(a.Data)+1e-9 {
			t.Fatal("budget-constrained coding broke the error criterion")
		}
	})
}

func TestLazyGramConcurrentEncode(t *testing.T) {
	// Race-detector coverage: parallel workers sharing one lazy coder.
	r := rng.New(53)
	d := unitDictionary(r, 20, 64)
	var lazy *BatchCoder
	withLazyGram(t, 8, 1<<20, func() { lazy = NewBatchCoder(d) })
	a := mat.NewDense(20, 120)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	c1, _ := lazy.EncodeColumns(a, 0.1, 0, 4)
	c2, _ := NewBatchCoder(d).EncodeColumns(a, 0.1, 0, 1)
	if c1.NNZ() != c2.NNZ() {
		t.Fatalf("lazy parallel nnz %d, eager serial %d", c1.NNZ(), c2.NNZ())
	}
	for i := range c1.Val {
		if c1.RowIdx[i] != c2.RowIdx[i] || math.Abs(c1.Val[i]-c2.Val[i]) > 1e-10 {
			t.Fatal("lazy parallel coding differs from eager serial")
		}
	}
}
