package extdict

import (
	"math"
	"testing"

	"extdict/internal/dataset"
	"extdict/internal/rng"
)

func demoData(t testing.TB, m, n int, seed uint64) *Matrix {
	t.Helper()
	u, err := dataset.GenerateUnion(dataset.UnionParams{M: m, N: n, Ks: []int{4, 5}}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return u.A
}

func TestFitFixedL(t *testing.T) {
	data := demoData(t, 32, 200, 1)
	plat := NewPlatform(1, 4)
	model, err := Fit(data, plat, Options{Epsilon: 0.1, L: 80, Workers: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if model.L() != 80 || model.N() != 200 {
		t.Fatalf("L=%d N=%d", model.L(), model.N())
	}
	if model.RelError(data) > 0.1+1e-9 {
		t.Fatal("tolerance violated")
	}
	if model.TuningReport() != nil {
		t.Fatal("fixed-L fit should not carry a tuning report")
	}
	if model.Alpha() <= 0 || model.NNZ() <= 0 || model.MemoryWords() <= 0 {
		t.Fatal("degenerate model statistics")
	}
	if model.Dictionary().Cols != 80 {
		t.Fatal("dictionary shape")
	}
	if model.Platform().Topology.P() != 4 {
		t.Fatal("platform lost")
	}
}

func TestFitAutoTune(t *testing.T) {
	data := demoData(t, 32, 400, 3)
	plat := NewPlatform(2, 4)
	model, err := Fit(data, plat, Options{Epsilon: 0.1, Workers: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	rep := model.TuningReport()
	if rep == nil || model.L() != rep.Best.L {
		t.Fatal("auto-tune report missing or inconsistent")
	}
	if model.RelError(data) > 0.1+1e-9 {
		t.Fatal("tolerance violated after tuning")
	}
	est := model.PredictIteration()
	if est.Time <= 0 || est.MemoryWordsPerRank <= 0 {
		t.Fatal("degenerate prediction")
	}
}

func TestFitValidation(t *testing.T) {
	data := demoData(t, 16, 50, 5)
	if _, err := Fit(data, NewPlatform(1, 1), Options{Epsilon: 0}); err == nil {
		t.Fatal("epsilon 0 accepted")
	}
	if _, err := Fit(data, Platform{}, Options{Epsilon: 0.1}); err == nil {
		t.Fatal("invalid platform accepted")
	}
}

func TestGramOperatorEndToEnd(t *testing.T) {
	data := demoData(t, 32, 160, 6)
	plat := NewPlatform(1, 4)
	model, err := Fit(data, plat, Options{Epsilon: 0.02, L: 100, Workers: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	op, err := model.GramOperator()
	if err != nil {
		t.Fatal(err)
	}
	dense := DenseGramOperator(data, plat)
	x := make([]float64, 160)
	for i := range x {
		x[i] = rng.New(8).NormFloat64()
	}
	yT := make([]float64, 160)
	yA := make([]float64, 160)
	dense.Apply(x, yT)
	op.Apply(x, yA)
	var num, den float64
	for i := range yT {
		d := yT[i] - yA[i]
		num += d * d
		den += yT[i] * yT[i]
	}
	if math.Sqrt(num/den) > 0.15 {
		t.Fatalf("transformed operator far from dense: %v", math.Sqrt(num/den))
	}
}

func TestSolveLassoViaFacade(t *testing.T) {
	data := demoData(t, 24, 120, 9)
	plat := NewPlatform(1, 2)
	r := rng.New(10)
	y := make([]float64, 24)
	for i := range y {
		y[i] = r.NormFloat64()
	}
	res := SolveLasso(DenseGramOperator(data, plat), data, y, LassoOptions{
		Lambda: 0.05, MaxIters: 300,
	})
	if res.Iters == 0 || res.Objective <= 0 {
		t.Fatalf("degenerate result %+v", res.Objective)
	}
	if res.Stats.TotalFlops == 0 {
		t.Fatal("no distributed cost recorded")
	}
}

func TestSolvePCAViaFacade(t *testing.T) {
	data := demoData(t, 24, 100, 11)
	plat := NewPlatform(1, 2)
	model, err := Fit(data, plat, Options{Epsilon: 0.05, L: 60, Workers: 2, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	op, err := model.GramOperator()
	if err != nil {
		t.Fatal(err)
	}
	res := SolvePCA(op, PCAOptions{Components: 3, Seed: 13})
	if len(res.Eigenvalues) != 3 {
		t.Fatal("wrong component count")
	}
	for i := 1; i < 3; i++ {
		if res.Eigenvalues[i] > res.Eigenvalues[i-1]+1e-9 {
			t.Fatal("eigenvalues unsorted")
		}
	}
}

func TestPredictOnOtherPlatforms(t *testing.T) {
	data := demoData(t, 32, 300, 40)
	model, err := Fit(data, NewPlatform(1, 1), Options{Epsilon: 0.1, L: 90, Workers: 2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	home := model.PredictIteration()
	if home != model.PredictOn(model.Platform()) {
		t.Fatal("PredictIteration must equal PredictOn(own platform)")
	}
	big := model.PredictOn(NewPlatform(8, 8))
	// More ranks shrink the per-rank sparse work but cross-node words get
	// more expensive; both estimates must at least be positive and the
	// critical flops must not grow.
	if big.Time <= 0 || big.FlopsCritical > home.FlopsCritical {
		t.Fatalf("prediction on 8x8 inconsistent: %+v vs %+v", big, home)
	}
}

func TestModelExtend(t *testing.T) {
	p := dataset.UnionParams{M: 24, N: 160, Ks: []int{3, 4}}
	u, _ := dataset.GenerateUnion(p, rng.New(14))
	base := u.Subset(seq(0, 120))
	extra := u.Subset(seq(120, 160))

	model, err := Fit(base.A, NewPlatform(1, 2), Options{Epsilon: 0.08, L: 70, Workers: 2, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	info, err := model.Extend(extra.A)
	if err != nil {
		t.Fatal(err)
	}
	if info.NewColumns != 40 || model.N() != 160 {
		t.Fatalf("extend bookkeeping: %+v, N=%d", info, model.N())
	}
}

func TestSGDOperatorFacade(t *testing.T) {
	data := demoData(t, 40, 80, 16)
	op := SGDOperator(data, NewPlatform(1, 2), 8, 17)
	x := make([]float64, 80)
	y := make([]float64, 80)
	st := op.Apply(x, y)
	if st.PathWords != 16 {
		t.Fatalf("SGD path words %d", st.PathWords)
	}
}

func seq(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}
