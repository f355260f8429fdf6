package solver

import (
	"math"
	"testing"

	"extdict/internal/cluster"
	"extdict/internal/dataset"
	"extdict/internal/dist"
	"extdict/internal/exd"
	"extdict/internal/mat"
	"extdict/internal/rng"
)

// refDeflate and refNormalize are the two-pass deflation the solvers ran
// before deflate fused it: a dot pass and an axpy pass per component, then
// a norm pass (mat.FastNorm2). deflate must reproduce them bit for bit.
func refDeflate(v []float64, comps [][]float64) {
	for _, c := range comps {
		mat.Axpy(-mat.Dot(c, v), c, v)
	}
}

func refNormalize(v []float64) {
	n := mat.FastNorm2(v)
	if n > 0 {
		mat.ScaleVec(1/n, v)
	}
}

// refScale is the reference loop for x ← G·x/λ: one reciprocal, then a
// multiply per entry.
func refScale(x, gx []float64, lambda float64) {
	r := 1 / lambda
	for i := range x {
		x[i] = gx[i] * r
	}
}

// refPowerMethod is PowerMethod's iteration (without checkpoints) on the
// two-pass deflation.
func refPowerMethod(op dist.Operator, opts PowerOpts) PowerResult {
	opts.fill()
	n := op.Dim()
	res := PowerResult{Eigenvectors: mat.NewDense(n, opts.Components)}
	r := rng.New(opts.Seed)
	var found [][]float64
	x := make([]float64, n)
	gx := make([]float64, n)
	for comp := 0; comp < opts.Components; comp++ {
		for i := range x {
			x[i] = r.NormFloat64()
		}
		refDeflate(x, found)
		refNormalize(x)
		lambda, prev := 0.0, math.Inf(1)
		for it := 0; it < opts.MaxIters; it++ {
			res.Stats.Accumulate(op.Apply(x, gx))
			res.Iters++
			refDeflate(gx, found)
			lambda = mat.FastNorm2(gx)
			if lambda == 0 {
				break
			}
			refScale(x, gx, lambda)
			if math.Abs(lambda-prev) <= opts.Tol*lambda {
				break
			}
			prev = lambda
		}
		refDeflate(x, found)
		refNormalize(x)
		vec := mat.CopyVec(x)
		found = append(found, vec)
		res.Eigenvalues = append(res.Eigenvalues, lambda)
		res.Eigenvectors.SetCol(comp, vec)
	}
	return res
}

func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func TestDeflateMatchesTwoPassLoop(t *testing.T) {
	r := rng.New(81)
	normals := func(n, stride, offset int) []float64 {
		v := make([]float64, n)
		for i := offset; i < n; i += stride {
			v[i] = r.NormFloat64()
		}
		return v
	}
	for k := 0; k <= 10; k++ {
		for n := 0; n <= 8*4+7; n++ {
			comps := make([][]float64, k)
			even := make([][]float64, k)
			for i := range comps {
				comps[i] = normals(n, 1, 0)
				even[i] = normals(n, 2, 0)
			}
			for _, c := range []struct {
				name  string
				v     []float64
				comps [][]float64
			}{
				{"random", normals(n, 1, 0), comps},
				{"zero", make([]float64, n), comps},
				// v lives on the odd entries and the components on the even
				// ones, so every dot is an exact zero.
				{"orthogonal", normals(n, 2, 1), even},
			} {
				got, want := mat.CopyVec(c.v), mat.CopyVec(c.v)
				out := deflate(got, c.comps)
				refDeflate(want, c.comps)
				wantOut := mat.FastNorm2(want)
				sameFloats(t, c.name+" v", got, want)
				if math.Float64bits(out) != math.Float64bits(wantOut) {
					t.Fatalf("%s, k=%d n=%d: deflate returned %v, want %v",
						c.name, k, n, out, wantOut)
				}
			}
		}
	}
}

// exdOp fits a small ExD operator, so the comparisons below also run the
// short-column sparse kernels.
func exdOp(t *testing.T) dist.Operator {
	t.Helper()
	u, _ := dataset.GenerateUnion(dataset.UnionParams{M: 32, N: 120, Ks: []int{4, 4}}, rng.New(12))
	tr, err := exd.Fit(u.A, exd.Params{L: 80, Epsilon: 0.02, Seed: 14, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := dist.NewExDGram(cluster.NewComm(cluster.NewPlatform(1, 2)), tr.D, tr.C)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestPowerMethodMatchesTwoPassDeflation(t *testing.T) {
	a, _ := knownSpectrum(rng.New(82), 30, 25, []float64{5, 3, 2, 1, 0.5})
	for _, c := range []struct {
		name string
		op   dist.Operator
		k    int
	}{
		{"dense", singleCoreOp(a), 5},
		{"exd", exdOp(t), 4},
	} {
		opts := PowerOpts{Components: c.k, Seed: 83}
		got, want := powerWatched(t, c.op, opts), refPowerMethod(c.op, opts)
		if got.Iters != want.Iters {
			t.Fatalf("%s: %d iterations, want %d", c.name, got.Iters, want.Iters)
		}
		sameFloats(t, c.name+" eigenvalues", got.Eigenvalues, want.Eigenvalues)
		sameFloats(t, c.name+" eigenvectors", got.Eigenvectors.Data, want.Eigenvectors.Data)
	}
}
