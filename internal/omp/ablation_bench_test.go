package omp

// Ablation: Batch-OMP with progressive Cholesky updates versus the
// reference implementation that recomputes residuals explicitly. The paper
// (§V-D) relies on Batch-OMP to make preprocessing linear-time; this
// benchmark quantifies the win when many signals share one dictionary —
// ExD's exact shape.

import (
	"fmt"
	"testing"

	"extdict/internal/mat"
	"extdict/internal/rng"
)

func BenchmarkAblationOMPVariants(b *testing.B) {
	r := rng.New(1)
	for _, shape := range []struct{ m, l, n int }{
		{64, 128, 256},
		{128, 256, 256},
		{256, 512, 256},
	} {
		d := unitDictionary(r, shape.m, shape.l)
		a := mat.NewDense(shape.m, shape.n)
		for i := range a.Data {
			a.Data[i] = r.NormFloat64()
		}
		col := make([]float64, shape.m)

		b.Run(fmt.Sprintf("reference/M=%d_L=%d", shape.m, shape.l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := 0; j < a.Cols; j++ {
					a.Col(j, col)
					refEncode(d, col, 0.1, 0)
				}
			}
		})
		b.Run(fmt.Sprintf("batch/M=%d_L=%d", shape.m, shape.l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				bc := NewBatchCoder(d) // Gram setup charged, as in real use
				ws := &Workspace{}
				for j := 0; j < a.Cols; j++ {
					a.Col(j, col)
					bc.Encode(col, 0.1, 0, ws)
				}
			}
		})
	}
}
