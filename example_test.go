package extdict_test

import (
	"fmt"
	"math"

	"extdict"
)

// ExampleFit demonstrates the core workflow: generate union-of-subspaces
// data, preprocess it for a platform, and inspect the transform.
func ExampleFit() {
	data, _, err := extdict.GenerateUnionOfSubspaces(extdict.UnionOfSubspacesParams{
		M: 32, N: 512, Ks: []int{3, 4},
	}, 1)
	if err != nil {
		panic(err)
	}
	model, err := extdict.Fit(data, extdict.NewPlatform(1, 4), extdict.Options{
		Epsilon: 0.1, L: 120, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("L=%d, error within tolerance: %v\n",
		model.L(), model.RelError(data) <= 0.1)
	// Output:
	// L=120, error within tolerance: true
}

// ExampleModel_GramOperator shows one distributed Gram iteration and its
// communication accounting.
func ExampleModel_GramOperator() {
	data, _, err := extdict.GenerateUnionOfSubspaces(extdict.UnionOfSubspacesParams{
		M: 40, N: 256, Ks: []int{3},
	}, 2)
	if err != nil {
		panic(err)
	}
	model, err := extdict.Fit(data, extdict.NewPlatform(2, 2), extdict.Options{
		Epsilon: 0.1, L: 24, Seed: 2,
	})
	if err != nil {
		panic(err)
	}
	op, err := model.GramOperator()
	if err != nil {
		panic(err)
	}
	x := make([]float64, 256)
	y := make([]float64, 256)
	stats := op.Apply(x, y)
	// Communication is 2·min(M, L) = 2·24 words per iteration.
	fmt.Printf("critical-path words: %d\n", stats.PathWords)
	// Output:
	// critical-path words: 48
}

// ExampleSolvePCA runs the distributed Power method through the facade.
func ExampleSolvePCA() {
	data, _, err := extdict.GenerateUnionOfSubspaces(extdict.UnionOfSubspacesParams{
		M: 24, N: 128, Ks: []int{2},
	}, 3)
	if err != nil {
		panic(err)
	}
	res := extdict.SolvePCA(
		extdict.DenseGramOperator(data, extdict.NewPlatform(1, 2)),
		extdict.PCAOptions{Components: 2, Seed: 3},
	)
	fmt.Printf("found %d eigenvalues, sorted: %v\n",
		len(res.Eigenvalues), res.Eigenvalues[0] >= res.Eigenvalues[1])
	// Output:
	// found 2 eigenvalues, sorted: true
}

// Example_quickstart generates a densely correlated dataset, preprocesses
// it with ExtDict for a target platform, and compares a distributed Gram
// iteration on the transformed data against the raw baseline.
func Example_quickstart() {
	// 1. Data: 96-dimensional signals on a union of low-rank subspaces —
	// the structure dense visual data (hyperspectral, light field) shows.
	data, _, err := extdict.GenerateUnionOfSubspaces(extdict.UnionOfSubspacesParams{
		M: 96, N: 4096, Ks: []int{3, 4, 5}, NoiseSigma: 0.001,
	}, 7)
	if err != nil {
		panic(err)
	}

	// 2. Target platform: 2 nodes × 8 cores. The cost model knows that
	// words crossing nodes are ~10x dearer than flops-equivalent.
	platform := extdict.NewPlatform(2, 8)

	// 3. Preprocess: tune the dictionary size L against the platform cost
	// model, then project A ≈ D·C with at most 10% transformation error.
	model, err := extdict.Fit(data, platform, extdict.Options{Epsilon: 0.1, Seed: 7})
	if err != nil {
		panic(err)
	}
	fmt.Printf("ExD transform: L=%d, alpha=%.2f nonzeros/column, error=%.3f\n",
		model.L(), model.Alpha(), model.RelError(data))
	fmt.Printf("storage: %d words vs %d raw (%.1fx smaller)\n",
		model.MemoryWords(), data.Rows*data.Cols,
		float64(data.Rows*data.Cols)/float64(model.MemoryWords()))

	// 4. One distributed Gram iteration, transformed vs raw.
	op, err := model.GramOperator()
	if err != nil {
		panic(err)
	}
	baseline := extdict.DenseGramOperator(data, platform)

	x := make([]float64, data.Cols)
	for i := range x {
		x[i] = 1
	}
	y := make([]float64, data.Cols)

	fast := op.Apply(x, y)
	slow := baseline.Apply(x, y)
	fmt.Printf("iteration on (DC)ᵀDC: %.1f µs modeled (%d words on the wire)\n",
		fast.ModeledTime*1e6, fast.PathWords)
	fmt.Printf("iteration on AᵀA:     %.1f µs modeled (%d words on the wire)\n",
		slow.ModeledTime*1e6, slow.PathWords)
	fmt.Printf("speedup: %.2fx\n", slow.ModeledTime/fast.ModeledTime)
	// Output:
	// ExD transform: L=25, alpha=3.32 nonzeros/column, error=0.046
	// storage: 33663 words vs 393216 raw (11.7x smaller)
	// iteration on (DC)ᵀDC: 37.1 µs modeled (50 words on the wire)
	// iteration on AᵀA:     155.7 µs modeled (192 words on the wire)
	// speedup: 4.19x
}

// Example_pca extracts the top eigenvalues of a large Gram matrix with the
// distributed Power method, comparing the ExtDict-transformed iteration
// against the raw AᵀA baseline — the paper's Fig. 10 workload in
// miniature.
func Example_pca() {
	data, err := extdict.GeneratePreset("salinas", 0.5, 11)
	if err != nil {
		panic(err)
	}
	fmt.Printf("dataset: %dx%d (hyperspectral-like)\n", data.Rows, data.Cols)

	platform := extdict.NewPlatform(8, 8) // 64 simulated cores

	// Baseline: Power method on the raw Gram matrix.
	raw := extdict.SolvePCA(
		extdict.DenseGramOperator(data, platform),
		extdict.PCAOptions{Components: 6, Seed: 3},
	)

	// ExtDict: preprocess once, then iterate on (DC)ᵀDC.
	model, err := extdict.Fit(data, platform, extdict.Options{Epsilon: 0.05, Seed: 3})
	if err != nil {
		panic(err)
	}
	op, err := model.GramOperator()
	if err != nil {
		panic(err)
	}
	fast := extdict.SolvePCA(op, extdict.PCAOptions{Components: 6, Seed: 3})

	fmt.Printf("\n%-4s %-14s %-14s %s\n", "k", "lambda (AᵀA)", "lambda (ExD)", "rel.diff")
	var errSum, valSum float64
	for k := range raw.Eigenvalues {
		d := math.Abs(raw.Eigenvalues[k] - fast.Eigenvalues[k])
		errSum += d
		valSum += raw.Eigenvalues[k]
		fmt.Printf("%-4d %-14.5g %-14.5g %.2e\n",
			k+1, raw.Eigenvalues[k], fast.Eigenvalues[k], d/raw.Eigenvalues[k])
	}
	fmt.Printf("\ncumulative eigenvalue error: %.4f%%\n", 100*errSum/valSum)
	fmt.Printf("modeled time: raw %.2f ms (%d iters)  ExtDict %.2f ms (%d iters)  -> %.2fx faster\n",
		raw.Stats.ModeledTime*1e3, raw.Iters,
		fast.Stats.ModeledTime*1e3, fast.Iters,
		raw.Stats.ModeledTime/fast.Stats.ModeledTime)
	// Output:
	// dataset: 96x8192 (hyperspectral-like)
	//
	// k    lambda (AᵀA)   lambda (ExD)   rel.diff
	// 1    818.7          818.72         1.97e-05
	// 2    765.99         765.64         4.51e-04
	// 3    733            733.17         2.29e-04
	// 4    637.01         636.25         1.19e-03
	// 5    553.96         553.45         9.13e-04
	// 6    527.49         526.84         1.23e-03
	//
	// cumulative eigenvalue error: 0.0605%
	// modeled time: raw 59.19 ms (625 iters)  ExtDict 42.57 ms (628 iters)  -> 1.39x faster
}

// Example_denoise reconstructs a noisy light-field patch with LASSO over a
// dictionary of clean patches (the paper's first application, §VIII-A),
// solving on the ExtDict-transformed Gram operator and comparing against
// the distributed SGD baseline.
func Example_denoise() {
	// Synthetic plenoptic capture: 5×5 cameras, 8×8 patches (1600-dim
	// columns), one held-out patch as the denoising target.
	lfp := extdict.LightFieldParams{
		Grid: 5, Patch: 8, NumPatches: 1025, NumSources: 16, SceneSize: 192,
	}
	all, err := extdict.GenerateLightField(lfp, 21)
	if err != nil {
		panic(err)
	}
	n := all.Cols - 1
	train := all.ColRange(0, n).Clone()
	clean := all.Col(n, nil)
	train.NormalizeColumns()

	// Corrupt the held-out patch at 20 dB input SNR (the paper's setting).
	noisy := extdict.AddNoiseSNR(clean, 20, 22)
	fmt.Printf("training patches: %d of dim %d; input SNR 20 dB\n", n, train.Rows)

	platform := extdict.NewPlatform(1, 4)
	model, err := extdict.Fit(train, platform, extdict.Options{Epsilon: 0.1, Seed: 23})
	if err != nil {
		panic(err)
	}
	fmt.Printf("ExD: L=%d alpha=%.2f\n", model.L(), model.Alpha())

	op, err := model.GramOperator()
	if err != nil {
		panic(err)
	}
	lambda := lassoWeight(train, noisy)
	gd := extdict.SolveLasso(op, train, noisy, extdict.LassoOptions{
		Lambda: lambda, MaxIters: 600, Tol: 1e-6,
	})
	recGD := train.MulVec(gd.X, nil)

	sgd := extdict.SolveLasso(
		extdict.SGDOperator(train, platform, 64, 24),
		train, noisy, extdict.LassoOptions{Lambda: lambda, MaxIters: 600, Tol: 1e-30},
	)
	recSGD := train.MulVec(sgd.X, nil)

	fmt.Printf("\n%-22s %-10s %-10s %s\n", "method", "PSNR(dB)", "iters", "modeled(ms)")
	fmt.Printf("%-22s %-10.2f %-10s %s\n", "noisy input", psnr(clean, noisy), "-", "-")
	fmt.Printf("%-22s %-10.2f %-10d %.2f\n", "ExtDict grad.descent", psnr(clean, recGD), gd.Iters, gd.Stats.ModeledTime*1e3)
	fmt.Printf("%-22s %-10.2f %-10d %.2f\n", "SGD baseline", psnr(clean, recSGD), sgd.Iters, sgd.Stats.ModeledTime*1e3)
	// Output:
	// training patches: 1024 of dim 1600; input SNR 20 dB
	// ExD: L=16 alpha=11.30
	//
	// method                 PSNR(dB)   iters      modeled(ms)
	// noisy input            30.44      -          -
	// ExtDict grad.descent   29.62      600        101.59
	// SGD baseline           23.69      600        79.55
}

// Example_superres reconstructs a full 5×5-camera light-field patch from
// its central 3×3 camera subset (the paper's second application,
// §VIII-A). The LASSO is solved against the subset rows of the patch
// dictionary; applying the full-resolution dictionary to the solution
// fills in the missing views.
func Example_superres() {
	lfp := extdict.LightFieldParams{
		Grid: 5, Patch: 8, NumPatches: 1025, NumSources: 16, SceneSize: 192,
	}
	all, err := extdict.GenerateLightField(lfp, 31)
	if err != nil {
		panic(err)
	}
	n := all.Cols - 1
	full := all.ColRange(0, n).Clone()
	targetFull := all.Col(n, nil)

	// Observation space: the central 3×3 cameras (576 of 1600 rows).
	subRows, err := extdict.LightFieldSubsetRows(lfp, 3)
	if err != nil {
		panic(err)
	}
	sub := full.RowSlice(subRows)
	norms := sub.NormalizeColumns()
	// Keep the full-resolution dictionary column-consistent with the
	// normalized observation dictionary.
	for i := 0; i < full.Rows; i++ {
		row := full.Row(i)
		for j := range row {
			if norms[j] > 0 {
				row[j] /= norms[j]
			}
		}
	}
	yLow := make([]float64, len(subRows))
	for k, r := range subRows {
		yLow[k] = targetFull[r]
	}
	fmt.Printf("dictionary: %d patches; observation %d rows -> reconstruction %d rows\n",
		n, sub.Rows, full.Rows)

	platform := extdict.NewPlatform(2, 8)
	model, err := extdict.Fit(sub, platform, extdict.Options{Epsilon: 0.05, Seed: 33})
	if err != nil {
		panic(err)
	}
	op, err := model.GramOperator()
	if err != nil {
		panic(err)
	}
	res := extdict.SolveLasso(op, sub, yLow, extdict.LassoOptions{
		Lambda: lassoWeight(sub, yLow), MaxIters: 800, Tol: 1e-6,
	})

	recon := full.MulVec(res.X, nil)
	fmt.Printf("ExD: L=%d alpha=%.2f; LASSO %d iters, modeled %.2f ms\n",
		model.L(), model.Alpha(), res.Iters, res.Stats.ModeledTime*1e3)
	fmt.Printf("reconstruction: rel.error %.4f, PSNR %.2f dB over %d synthesized pixels\n",
		relError(targetFull, recon), psnr(targetFull, recon), full.Rows-sub.Rows)
	// Output:
	// dictionary: 1024 patches; observation 576 rows -> reconstruction 1600 rows
	// ExD: L=24 alpha=11.83; LASSO 800 iters, modeled 80.67 ms
	// reconstruction: rel.error 0.1192, PSNR 25.25 dB over 1024 synthesized pixels
}

// Example_evolving extends a fitted ExtDict model as the dataset grows
// (§V-E). In-span additions only grow the coefficient matrix; out-of-span
// additions trigger the zero-padded dictionary extension of Fig. 3 —
// without ever re-transforming the original data.
func Example_evolving() {
	platform := extdict.NewPlatform(1, 4)

	// Initial corpus: three subspaces.
	base, _, err := extdict.GenerateUnionOfSubspaces(extdict.UnionOfSubspacesParams{
		M: 64, N: 2000, Ks: []int{3, 4, 5},
	}, 41)
	if err != nil {
		panic(err)
	}
	model, err := extdict.Fit(base, platform, extdict.Options{Epsilon: 0.08, Seed: 42})
	if err != nil {
		panic(err)
	}
	fmt.Printf("initial model: N=%d L=%d alpha=%.2f error=%.4f\n",
		model.N(), model.L(), model.Alpha(), model.RelError(base))

	// Batch 1: more columns from the SAME subspaces (same generator seed
	// reproduces the same bases). The dictionary already spans them.
	more, _, err := extdict.GenerateUnionOfSubspaces(extdict.UnionOfSubspacesParams{
		M: 64, N: 500, Ks: []int{3, 4, 5},
	}, 41) // same seed -> same subspaces
	if err != nil {
		panic(err)
	}
	info, err := model.Extend(more)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nbatch 1 (in-span, %d columns): failed=%d, dictionary grown=%v\n",
		info.NewColumns, info.FailedColumns, info.DictGrown)
	fmt.Printf("model now: N=%d L=%d\n", model.N(), model.L())

	// Batch 2: a drastically different structure — a new, higher-dim
	// subspace the dictionary has never seen.
	novel, _, err := extdict.GenerateUnionOfSubspaces(extdict.UnionOfSubspacesParams{
		M: 64, N: 500, Ks: []int{8},
	}, 99)
	if err != nil {
		panic(err)
	}
	info, err = model.Extend(novel)
	if err != nil {
		panic(err)
	}
	fmt.Printf("\nbatch 2 (novel structure, %d columns): failed=%d, dictionary grown=%v (+%d atoms)\n",
		info.NewColumns, info.FailedColumns, info.DictGrown, info.AddedAtoms)
	fmt.Printf("model now: N=%d L=%d alpha=%.2f\n", model.N(), model.L(), model.Alpha())
	// Output:
	// initial model: N=2000 L=26 alpha=3.29 error=0.0333
	//
	// batch 1 (in-span, 500 columns): failed=0, dictionary grown=false
	// model now: N=2500 L=26
	//
	// batch 2 (novel structure, 500 columns): failed=500, dictionary grown=true (+5 atoms)
	// model now: N=3000 L=31 alpha=3.57
}

// Example_clustering runs spectral partitioning of densely correlated
// signals through the ExtDict-transformed Gram operator, plus sparse PCA
// for interpretable components — two more of the Power-method
// applications the paper lists (§II-A).
func Example_clustering() {
	// Three direction clusters (rank-1 subspaces) in a 64-dim space.
	data, truth, err := extdict.GenerateUnionOfSubspaces(extdict.UnionOfSubspacesParams{
		M: 64, N: 1200, Ks: []int{1, 1, 1}, NoiseSigma: 0.01,
	}, 91)
	if err != nil {
		panic(err)
	}

	platform := extdict.NewPlatform(2, 4)
	model, err := extdict.Fit(data, platform, extdict.Options{Epsilon: 0.05, Seed: 92})
	if err != nil {
		panic(err)
	}
	op, err := model.GramOperator()
	if err != nil {
		panic(err)
	}

	// Spectral partitioning on the transformed operator.
	res := extdict.SolveSpectralClustering(op, extdict.SpectralOptions{Clusters: 3, Seed: 93})
	fmt.Printf("spectral clustering on (DC)ᵀDC: %d columns into 3 clusters\n", len(res.Assign))
	fmt.Printf("pairwise agreement with ground truth: %.1f%%\n", 100*randIndex(res.Assign, truth))
	fmt.Printf("distributed cost: %.2f ms modeled over %d power iterations\n",
		res.Eigen.Stats.ModeledTime*1e3, res.Eigen.Iters)

	// Sparse PCA: components restricted to 8 nonzero loadings each.
	sp := extdict.SolveSparsePCA(op, extdict.SparsePCAOptions{
		Components: 3, Cardinality: 8, Seed: 94,
	})
	fmt.Println("\nsparse PCA (≤8 loadings per component):")
	for k, v := range sp.Variances {
		nz := 0
		for _, x := range sp.Components.Col(k, nil) {
			if x != 0 {
				nz++
			}
		}
		fmt.Printf("component %d: explained variance %.2f, %d nonzero loadings\n", k+1, v, nz)
	}
	// Output:
	// spectral clustering on (DC)ᵀDC: 1200 columns into 3 clusters
	// pairwise agreement with ground truth: 97.3%
	// distributed cost: 17.32 ms modeled over 211 power iterations
	//
	// sparse PCA (≤8 loadings per component):
	// component 1: explained variance 7.99, 8 nonzero loadings
	// component 2: explained variance 7.98, 8 nonzero loadings
	// component 3: explained variance 7.98, 8 nonzero loadings
}

// Example_svm trains a soft-margin support vector machine in the dual on
// the distributed Gram operator — §II-A's last target algorithm —
// comparing the ExtDict-transformed iteration against the raw baseline on
// time and agreement, then classifying held-out samples with the primal
// weights.
func Example_svm() {
	// One draw, split into train and held-out halves (both classes share
	// the same pair of directions).
	all, allLabels := twoClassData(64, 2400, 0.02, 121)
	data := all.ColRange(0, 2000).Clone()
	labels := allLabels[:2000]
	fresh := all.ColRange(2000, 2400).Clone()
	freshLabels := allLabels[2000:]

	platform := extdict.NewPlatform(2, 4)
	opts := extdict.SVMOptions{C: 10, MaxIters: 1000, Seed: 122}

	raw := extdict.SolveSVM(extdict.DenseGramOperator(data, platform), labels, opts)

	model, err := extdict.Fit(data, platform, extdict.Options{Epsilon: 0.1, Seed: 123})
	if err != nil {
		panic(err)
	}
	op, err := model.GramOperator()
	if err != nil {
		panic(err)
	}
	fast := extdict.SolveSVM(op, labels, opts)

	fmt.Printf("%-12s %-10s %-8s %-10s %s\n", "operator", "accuracy", "SVs", "dual obj", "modeled(ms)")
	for _, row := range []struct {
		name string
		r    extdict.SVMResult
	}{{"AᵀA", raw}, {"ExD", fast}} {
		correct := 0
		for i, y := range labels {
			if y*row.r.Margins[i] > 0 {
				correct++
			}
		}
		fmt.Printf("%-12s %-10.3f %-8d %-10.2f %.2f\n",
			row.name, float64(correct)/float64(len(labels)),
			row.r.SupportVectors, row.r.Objective, row.r.Stats.ModeledTime*1e3)
	}
	fmt.Printf("\nspeedup on the training iterations: %.2fx\n",
		raw.Stats.ModeledTime/fast.Stats.ModeledTime)

	// Classify the held-out samples with the primal weights.
	w := extdict.SVMWeights(data, labels, fast)
	correct := 0
	col := make([]float64, 64)
	for j := 0; j < fresh.Cols; j++ {
		fresh.Col(j, col)
		f := 0.0
		for i, wi := range w {
			f += wi * col[i]
		}
		if f*freshLabels[j] > 0 {
			correct++
		}
	}
	fmt.Printf("held-out accuracy on %d fresh samples: %.3f\n",
		fresh.Cols, float64(correct)/float64(fresh.Cols))
	// Output:
	// operator     accuracy   SVs      dual obj   modeled(ms)
	// AᵀA          1.000      211      1.13       104.47
	// ExD          1.000      211      1.13       68.18
	//
	// speedup on the training iterations: 1.53x
	// held-out accuracy on 400 fresh samples: 1.000
}

// lassoWeight sizes λ relative to the correlation scale of the problem:
// 0.05·‖Aᵀy‖∞.
func lassoWeight(a *extdict.Matrix, y []float64) float64 {
	top := 0.0
	for _, v := range a.MulVecT(y, nil) {
		top = math.Max(top, math.Abs(v))
	}
	return 0.05 * top
}

// psnr is 10·log₁₀(peak²/MSE), with the reference's largest magnitude as
// the peak.
func psnr(ref, test []float64) float64 {
	var mse, peak float64
	for i, r := range ref {
		d := r - test[i]
		mse += d * d
		if a := math.Abs(r); a > peak {
			peak = a
		}
	}
	mse /= float64(len(ref))
	return 10 * math.Log10(peak*peak/mse)
}

// relError is ‖ref - test‖₂/‖ref‖₂.
func relError(ref, test []float64) float64 {
	var num, den float64
	for i, r := range ref {
		d := r - test[i]
		num += d * d
		den += r * r
	}
	return math.Sqrt(num / den)
}

// randIndex is the fraction of pairs on which two clusterings agree.
func randIndex(a, b []int) float64 {
	agree, total := 0, 0
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			if (a[i] == a[j]) == (b[i] == b[j]) {
				agree++
			}
			total++
		}
	}
	return float64(agree) / float64(total)
}

// twoClassData draws unit-norm columns scattered around one of two
// orthogonal directions (no sign flips, so the classes are linearly
// separable), returning the matrix and ±1 labels: a light-weight stand-in
// for a labeled feature matrix.
func twoClassData(m, n int, noise float64, seed int64) (*extdict.Matrix, []float64) {
	// Deterministic pseudo-randomness without importing internal packages:
	// a splitmix-style generator is enough for demo data.
	state := uint64(seed)
	next := func() float64 {
		state += 0x9e3779b97f4a7c15
		z := state
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		z ^= z >> 31
		return float64(z>>11) / (1 << 53)
	}
	gauss := func() float64 {
		// Box-Muller.
		u1, u2 := next(), next()
		if u1 < 1e-12 {
			u1 = 1e-12
		}
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}

	u := make([]float64, m)
	v := make([]float64, m)
	for i := range u {
		u[i] = gauss()
		v[i] = gauss()
	}
	norm := func(x []float64) {
		s := 0.0
		for _, e := range x {
			s += e * e
		}
		s = math.Sqrt(s)
		for i := range x {
			x[i] /= s
		}
	}
	norm(u)
	d := 0.0
	for i := range v {
		d += u[i] * v[i]
	}
	for i := range v {
		v[i] -= d * u[i]
	}
	norm(v)

	a := extdict.NewMatrix(m, n)
	labels := make([]float64, n)
	col := make([]float64, m)
	for j := 0; j < n; j++ {
		base := u
		labels[j] = 1
		if j%2 == 1 {
			base = v
			labels[j] = -1
		}
		for i := range col {
			col[i] = base[i] + noise*gauss()
		}
		norm(col)
		a.SetCol(j, col)
	}
	return a, labels
}
