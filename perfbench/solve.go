package main

import (
	"fmt"
	"math"

	"extdict/internal/cluster"
	"extdict/internal/dist"
	"extdict/internal/exd"
	"extdict/internal/mat"
	"extdict/internal/rng"
	"extdict/internal/solver"
	"extdict/internal/sparse"
	"extdict/internal/tune"
)

// solveComponents is the number of leading eigenpairs the power method
// extracts, as in the paper's §VIII-A.
const solveComponents = 10

// solveTuneSeed tunes the solve workloads' transform. The tuned L and nnz
// set ExD's cost per iteration, and they move by ±10% from one tuner seed
// to the next, so the transform is fixed like the data; the run's seed
// draws the power method's start vector.
const solveTuneSeed = 1

// tracedOp records a span around every Apply of the operator it wraps.
type tracedOp struct {
	dist.Operator
	t    *tracer
	last cluster.Stats
}

func (o *tracedOp) Apply(x, y []float64) cluster.Stats {
	id := o.t.begin("dist.Apply")
	o.last = o.Operator.Apply(x, y)
	o.t.end(id)
	return o.last
}

// runSolveExD times the 10-component power method on the ExD Gram operator
// of the tuned lightfield transform (the paper's ExtDict iteration).
func runSolveExD(cfg config, t *tracer) (outcome, error) { return runSolve(cfg, t, true) }

// runSolveRaw times the same power method on the untransformed AᵀA
// operator, the paper's baseline.
func runSolveRaw(cfg config, t *tracer) (outcome, error) { return runSolve(cfg, t, false) }

// runSolve generates the lightfield preset and, for ExD, tunes and fits it
// for the paper's 8×8 platform (64 simulated ranks), builds the operator,
// then times solver.PowerMethod on it. The other operator's spectrum,
// computed once after the timed loop, checks the answer.
func runSolve(cfg config, t *tracer, useExD bool) (outcome, error) {
	plat := cluster.NewPlatform(8, 8)
	var a *mat.Dense
	var fit *exd.Transform
	var opr dist.Operator
	setups, err := setup(cfg, func() error {
		var err error
		if a, err = generate(t, "lightfield", cfg); err != nil {
			return err
		}
		if !useExD {
			t.do("dist.NewDenseGram", func() { opr = dist.NewDenseGram(cluster.NewComm(plat), a) })
			return nil
		}
		if fit, err = tuneAndFit(t, a, plat); err != nil {
			return err
		}
		opr, err = newExDGram(t, plat, fit)
		return err
	})
	if err != nil {
		return outcome{}, err
	}

	opts := solver.PowerOpts{Components: solveComponents, Seed: cfg.seed}
	var first *solver.PowerResult
	var applyStats cluster.Stats
	var solveIDs []int
	tm, err := measure(cfg, t, 1, func(_ int, t *tracer) func() error {
		var res solver.PowerResult
		if t == nil {
			res = solver.PowerMethod(opr, opts)
		} else {
			top := &tracedOp{Operator: opr, t: t}
			id := t.begin("solver.PowerMethod")
			res = solver.PowerMethod(top, opts)
			t.end(id)
			solveIDs = append(solveIDs, id)
			applyStats = top.last
		}
		return func() error {
			if first == nil {
				first = &res
				return nil
			}
			if res.Iters != first.Iters {
				return fmt.Errorf("power method took %d iterations, the first solve %d", res.Iters, first.Iters)
			}
			for i, v := range res.Eigenvalues {
				if math.Float64bits(v) != math.Float64bits(first.Eigenvalues[i]) {
					return fmt.Errorf("eigenvalue %d is %v, the first solve's %v", i, v, first.Eigenvalues[i])
				}
			}
			return nil
		}
	})
	attempted := len(tm.plain) + len(tm.traced)
	if err != nil {
		return outcome{attempted: attempted, failed: 1}, err
	}

	// The check: ExD's eigenvalues lie within eps (relative) of AᵀA's.
	other, err := referenceSolve(a, plat, !useExD, opts)
	if err != nil {
		return outcome{attempted: attempted, failed: 1}, err
	}
	exdVals, rawVals := first.Eigenvalues, other.Eigenvalues
	if !useExD {
		exdVals, rawVals = rawVals, exdVals
	}
	if err := sameSpectrum(exdVals, rawVals); err != nil {
		return outcome{attempted: attempted, failed: 1}, err
	}

	// One operation is one power-method iteration, the unit the paper's
	// Figs. 7–8 compare. The iteration count moves with the start vector
	// and the tuned transform by ±15%, so the solve time would mostly
	// measure the seed; solver.iters and solver.solve_s report it.
	iterMS := make([]float64, len(tm.plain))
	total := 0.0
	for i, s := range tm.plain {
		iterMS[i] = 1e3 * s / float64(first.Iters)
		total += s
	}
	out := outcome{
		attempted: attempted,
		setupS:    setups,
		opP50MS:   median(iterMS),
		opsPerS:   float64(len(tm.plain)*first.Iters) / total,
	}
	if t == nil {
		return out, nil
	}
	selfS := make([]float64, len(solveIDs))
	for i, id := range solveIDs {
		selfS[i] = t.self(id)
	}
	applyUS := t.durations("dist.Apply", -1)
	for i := range applyUS {
		applyUS[i] *= 1e6
	}
	out.layer = map[string]float64{
		"dist.apply_us.p50":   percentile(applyUS, 0.50),
		"dist.apply_us.p99":   percentile(applyUS, 0.99),
		"solver.iters":        float64(first.Iters),
		"solver.solve_s":      median(t.durations("solver.PowerMethod", -1)),
		"solver.self_s":       median(selfS),
		"cluster.path_words":  float64(applyStats.PathWords),
		"cluster.phases":      float64(applyStats.Phases),
		"cluster.max_bytes":   float64(applyStats.MaxBytes),
		"trace.overhead_frac": tm.overhead(),
	}
	kernelProbes(t, plat, a, fit, cfg.seed, out.layer)
	return out, nil
}

// tuneAndFit runs ExtDict's preprocessing for the platform.
func tuneAndFit(t *tracer, a *mat.Dense, plat cluster.Platform) (*exd.Transform, error) {
	var fit *exd.Transform
	var err error
	t.do("tune.TuneAndFit", func() {
		fit, _, err = tune.TuneAndFit(a, plat, tune.Config{Epsilon: epsilon, Workers: mat.Workers, Seed: solveTuneSeed})
	})
	return fit, err
}

func newExDGram(t *tracer, plat cluster.Platform, fit *exd.Transform) (*dist.ExDGram, error) {
	var g *dist.ExDGram
	var err error
	t.do("dist.NewExDGram", func() { g, err = dist.NewExDGram(cluster.NewComm(plat), fit.D, fit.C) })
	return g, err
}

// referenceSolve runs the power method once on the other operator: ExD's
// when useExD is set, AᵀA's otherwise.
func referenceSolve(a *mat.Dense, plat cluster.Platform, useExD bool, opts solver.PowerOpts) (solver.PowerResult, error) {
	if !useExD {
		return solver.PowerMethod(dist.NewDenseGram(cluster.NewComm(plat), a), opts), nil
	}
	fit, err := tuneAndFit(nil, a, plat)
	if err != nil {
		return solver.PowerResult{}, err
	}
	g, err := newExDGram(nil, plat, fit)
	if err != nil {
		return solver.PowerResult{}, err
	}
	return solver.PowerMethod(g, opts), nil
}

// sameSpectrum checks that every ExD eigenvalue lies within eps, relative,
// of the matching AᵀA eigenvalue.
func sameSpectrum(exdVals, rawVals []float64) error {
	if len(exdVals) != solveComponents || len(rawVals) != solveComponents {
		return fmt.Errorf("got %d ExD and %d AᵀA eigenvalues, want %d", len(exdVals), len(rawVals), solveComponents)
	}
	for i := range exdVals {
		if !(math.Abs(exdVals[i]-rawVals[i]) <= epsilon*rawVals[i]) {
			return fmt.Errorf("eigenvalue %d: ExD %.6g vs AᵀA %.6g, beyond eps %.2g", i, exdVals[i], rawVals[i], epsilon)
		}
	}
	return nil
}

// kernelProbes times, one layer at a time, the kernels one Apply of the
// operator runs on the 64 rank blocks, serially and without the cluster
// runtime, plus the runtime's rendezvous with the operator's collective
// schedule and no compute.
func kernelProbes(t *tracer, plat cluster.Platform, a *mat.Dense, fit *exd.Transform, seed uint64, layer map[string]float64) {
	const probeSeconds = 0.5
	p := plat.Topology.P()
	n := a.Cols
	r := rng.New(seed)
	x := make([]float64, n)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	y := make([]float64, n)
	vm := make([]float64, a.Rows)
	// AᵀA and ExD Case 2 allreduce an M-vector; ExD Case 1 reduces an
	// L-vector to rank 0 and broadcasts it back.
	words, allreduce := a.Rows, true

	if fit == nil {
		blocks := make([]*mat.Dense, p)
		for i := range blocks {
			lo, hi := dist.BlockRange(n, p, i)
			blocks[i] = a.ColRange(lo, hi)
		}
		layer["mat.block_us"] = probe(t, "mat.Dense.ParMulVec+ParMulVecT", probeSeconds, func() {
			for i, blk := range blocks {
				lo, hi := dist.BlockRange(n, p, i)
				blk.ParMulVecT(blk.ParMulVec(x[lo:hi], vm), y[lo:hi])
			}
		})
	} else {
		l := fit.L()
		blocks := make([]*sparse.CSC, p)
		for i := range blocks {
			lo, hi := dist.BlockRange(n, p, i)
			blocks[i] = fit.C.ColSliceRange(lo, hi)
		}
		vl := make([]float64, l)
		layer["sparse.csc_us"] = probe(t, "sparse.CSC.MulVec+MulVecT", probeSeconds, func() {
			for i, blk := range blocks {
				lo, hi := dist.BlockRange(n, p, i)
				blk.MulVecT(blk.MulVec(x[lo:hi], vl), y[lo:hi])
			}
		})
		layer["mat.dict_us"] = probe(t, "mat.Dense.ParMulVec+ParMulVecT", probeSeconds, func() {
			fit.D.ParMulVecT(fit.D.ParMulVec(vl, vm), vl)
		})
		if l <= a.Rows {
			words, allreduce = l, false
		}
	}

	comm := cluster.NewComm(plat)
	bufs := make([][]float64, p)
	for i := range bufs {
		bufs[i] = make([]float64, words)
	}
	layer["cluster.rendezvous_us"] = probe(t, "cluster.Comm.Run", probeSeconds, func() {
		comm.Run(func(rk *cluster.Rank) {
			if allreduce {
				rk.Allreduce(bufs[rk.ID])
			} else {
				rk.Reduce(bufs[rk.ID], 0)
				rk.Broadcast(bufs[rk.ID], 0)
			}
		})
	})
}
