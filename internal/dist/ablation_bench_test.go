package dist

// Ablation: Algorithm 2's two schedules around the L ≈ M boundary. Case 1
// centralizes the dictionary work on rank 0 and ships 2·L words; Case 2
// replicates the dictionary, pays redundant flops, and ships 2·M words. The
// paper switches at L = M; these benchmarks measure both sides of the
// boundary so the crossover is visible in the modeled time.

import (
	"fmt"
	"testing"

	"extdict/internal/cluster"
	"extdict/internal/dataset"
	"extdict/internal/exd"
	"extdict/internal/rng"
)

func BenchmarkAblationCaseBoundary(b *testing.B) {
	u, err := dataset.GenerateUnion(
		dataset.UnionParams{M: 128, N: 4096, Ks: []int{4, 5, 6}}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	plat := cluster.NewPlatform(2, 8)
	x := make([]float64, 4096)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, 4096)

	for _, l := range []int{64, 120, 136, 256} { // below, at, just above, far above M
		tr, err := exd.Fit(u.A, exd.Params{L: l, Epsilon: 0.05, Seed: 2, Workers: 2})
		if err != nil {
			b.Fatal(err)
		}
		g, err := NewExDGram(cluster.NewComm(plat), tr.D, tr.C)
		if err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("L=%d/case=%d", l, map[bool]int{false: 1, true: 2}[g.CaseTwo()])
		b.Run(name, func(b *testing.B) {
			var modeled float64
			var words int64
			for i := 0; i < b.N; i++ {
				st := g.Apply(x, y)
				modeled = st.ModeledTime
				words = st.PathWords
			}
			b.ReportMetric(modeled*1e6, "modeled-µs")
			b.ReportMetric(float64(words), "path-words")
		})
	}
}
