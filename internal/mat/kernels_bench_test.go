package mat

import (
	"fmt"
	"testing"

	"extdict/internal/rng"
)

// Scalar reference kernels: the pre-optimization single-accumulator loops.
// Benchmarked alongside the blocked kernels in the same binary and the same
// process, they give a machine-drift-free speedup ratio — the before/after
// numbers in DESIGN.md come from these pairs.

func refMulVec(m *Dense, x, y []float64) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
}

func refMulVecT(m *Dense, x, y []float64) {
	for i := range y {
		y[i] = 0
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		xi := x[i]
		if xi == 0 {
			continue
		}
		for j, v := range row {
			y[j] += xi * v
		}
	}
}

func refATA(a *Dense) *Dense {
	n := a.Cols
	g := NewDense(n, n)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for p := 0; p < n; p++ {
			vp := row[p]
			if vp == 0 {
				continue
			}
			grow := g.Row(p)
			for q := p; q < n; q++ {
				grow[q] += vp * row[q]
			}
		}
	}
	mirrorLower(g)
	return g
}

func benchMatrix(rows, cols int, seed uint64) *Dense {
	r := rng.New(seed)
	a := NewDense(rows, cols)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	return a
}

func benchVec(n int, seed uint64) []float64 {
	r := rng.New(seed)
	v := make([]float64, n)
	for i := range v {
		v[i] = r.NormFloat64()
	}
	return v
}

// Sizes span the paper's operating regime: M=1024 signals, dictionaries /
// Gram sizes of a few hundred columns.

func BenchmarkMulVecKernel(b *testing.B) {
	for _, n := range []int{256, 1024} {
		a := benchMatrix(n, n, 1)
		x, y := benchVec(n, 2), make([]float64, n)
		b.Run(fmt.Sprintf("blocked/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(8 * n * n))
			for i := 0; i < b.N; i++ {
				a.MulVec(x, y)
			}
		})
		b.Run(fmt.Sprintf("scalar-ref/n=%d", n), func(b *testing.B) {
			b.SetBytes(int64(8 * n * n))
			for i := 0; i < b.N; i++ {
				refMulVec(a, x, y)
			}
		})
	}
}

func BenchmarkMulVecTKernel(b *testing.B) {
	const n = 1024
	a := benchMatrix(n, n, 3)
	x, y := benchVec(n, 4), make([]float64, n)
	b.Run("blocked", func(b *testing.B) {
		b.SetBytes(8 * n * n)
		for i := 0; i < b.N; i++ {
			a.MulVecT(x, y)
		}
	})
	b.Run("scalar-ref", func(b *testing.B) {
		b.SetBytes(8 * n * n)
		for i := 0; i < b.N; i++ {
			refMulVecT(a, x, y)
		}
	})
}

// BenchmarkBlockKernels times MulVec (dot6K) and MulVecT (axpy4K) on a
// 192×384 block — one of solve-raw's 64 blocks of A — beside the same row
// blocking over the pre-rewrite kernels (refDot6K, refAxpy4K). Both sides
// produce the same bits; the gap is the bounds checks.
func BenchmarkBlockKernels(b *testing.B) {
	const rows, cols = 192, 384
	a := benchMatrix(rows, cols, 12)
	x, xt := benchVec(cols, 13), benchVec(rows, 14)
	y, yt := make([]float64, rows), make([]float64, cols)
	b.Run("MulVec", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.MulVec(x, y)
		}
	})
	b.Run("MulVec/ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refBlockedMulVec(a, x, y)
		}
	})
	b.Run("MulVecT", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a.MulVecT(xt, yt)
		}
	})
	b.Run("MulVecT/ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refBlockedMulVecT(a, xt, yt)
		}
	})
}

func BenchmarkATAKernel(b *testing.B) {
	for _, n := range []int{128, 256} {
		a := benchMatrix(n, n, 5)
		b.Run(fmt.Sprintf("blocked/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ATA(a)
			}
		})
		b.Run(fmt.Sprintf("scalar-ref/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				refATA(a)
			}
		})
	}
}

func BenchmarkMulToKernel(b *testing.B) {
	const n = 256
	a, c := benchMatrix(n, n, 6), benchMatrix(n, n, 7)
	dst := NewDense(n, n)
	b.SetBytes(int64(8 * n * n * n / 1024)) // per-op traffic is O(n³/tile); nominal
	for i := 0; i < b.N; i++ {
		MulTo(dst, a, c)
	}
}

func BenchmarkCholeskyFactorize(b *testing.B) {
	const n = 256
	a := benchMatrix(n+8, n, 8)
	s := ATA(a) // SPD
	c := NewCholesky(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Reset()
		if err := c.Factorize(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkParKernels(b *testing.B) {
	const rows, cols = 2048, 256
	a := benchMatrix(rows, cols, 9)
	x, xt := benchVec(cols, 10), benchVec(rows, 11)
	y, yt := make([]float64, rows), make([]float64, cols)
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("ParMulVec/w=%d", w), func(b *testing.B) {
			defer func(old int) { Workers = old }(Workers)
			Workers = w
			for i := 0; i < b.N; i++ {
				a.ParMulVec(x, y)
			}
		})
		b.Run(fmt.Sprintf("ParMulVecT/w=%d", w), func(b *testing.B) {
			defer func(old int) { Workers = old }(Workers)
			Workers = w
			for i := 0; i < b.N; i++ {
				a.ParMulVecT(xt, yt)
			}
		})
		b.Run(fmt.Sprintf("ParATA/w=%d", w), func(b *testing.B) {
			defer func(old int) { Workers = old }(Workers)
			Workers = w
			for i := 0; i < b.N; i++ {
				ParATA(a)
			}
		})
	}
}

// normSink keeps the benchmarked norms' results live.
var normSink float64

// BenchmarkNormKernels times the one-pass FastNorm2 and AxpyNorm2 at the
// lightfield preset's N = 24 576 beside Norm2's scaled recurrence (a
// division per entry) and the Dot and AxpyDot passes they mirror.
func BenchmarkNormKernels(b *testing.B) {
	const n = 24576
	x, y := benchVec(n, 15), benchVec(n, 16)
	for _, c := range []struct {
		name string
		f    func() float64
	}{
		{"FastNorm2", func() float64 { return FastNorm2(x) }},
		{"Norm2", func() float64 { return Norm2(x) }},
		{"Dot", func() float64 { return Dot(x, x) }},
		{"AxpyNorm2", func() float64 { return AxpyNorm2(0x1p-30, x, y) }},
		{"AxpyDot", func() float64 { return AxpyDot(0x1p-30, x, y, y) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				normSink = c.f()
			}
		})
	}
}
