package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"time"

	"extdict/internal/cluster"
	"extdict/internal/dist"
	"extdict/internal/exd"
	"extdict/internal/mat"
	"extdict/internal/matio"
	"extdict/internal/perf"
	"extdict/internal/solver"
)

// cmdLasso solves min ‖A·x - y‖² + λ‖x‖₁ on raw, transformed, or SGD
// operators and reports solution statistics.
func cmdLasso(args []string) error {
	fs := flag.NewFlagSet("lasso", flag.ContinueOnError)
	in, model, raw := operandFlags(fs)
	yPath := fs.String("y", "", "observation vector file (single CSV column); required")
	lambda := fs.Float64("lambda", 0, "ℓ₁ weight (0 = 0.05·‖Aᵀy‖∞)")
	sgd := fs.Int("sgd", 0, "use the SGD baseline with this batch size")
	iters := fs.Int("iters", 500, "maximum iterations")
	seed := fs.Uint64("seed", 1, "random seed")
	faults := fs.Uint64("faults", 0, "inject a deterministic fault schedule drawn from this seed and recover through the supervisor (0 = off)")
	out := fs.String("out", "", "optional path to write the solution vector")
	nodes, cores := platformFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *yPath == "" {
		return fmt.Errorf("lasso: -y is required")
	}
	a, err := loadNormalized(*in)
	if err != nil {
		return err
	}
	y, err := loadVector(*yPath, a.Rows)
	if err != nil {
		return err
	}
	plat := cluster.NewPlatform(*nodes, *cores)

	build, err := buildOperatorOn(a, opSpec{model: *model, raw: *raw, sgdBatch: *sgd, seed: *seed})
	if err != nil {
		return err
	}
	if *lambda <= 0 {
		*lambda = 0.05 * mat.NormInf(a.MulVecT(y, nil))
	}
	opts := solver.LassoOpts{Lambda: *lambda, MaxIters: *iters}
	aty, y2 := a.MulVecT(y, nil), mat.Dot(y, y)
	op := build(cluster.NewComm(plat))
	sw := perf.StartWall()
	var res solver.LassoResult
	if *faults != 0 {
		// Each lasso iteration is one Allreduce = two collective phases.
		plan := cliFaultPlan(*faults, plat.Topology.P(), int64(2*(*iters)))
		comm := cluster.NewComm(plat)
		comm.InstallFaultPlan(plan)
		var rec solver.Recovery
		res, rec, err = solver.SupervisedLasso(comm, build, aty, y2, opts, solver.SupervisorOpts{})
		if err != nil {
			return err
		}
		printRecovery(plan, rec)
	} else {
		res = solver.Lasso(op, aty, y2, opts)
	}
	nz := 0
	for _, v := range res.X {
		if v != 0 {
			nz++
		}
	}
	fmt.Printf("%s on %s: %d iters (converged=%v), objective %.6g, %d/%d nonzeros\n",
		op.Name(), plat.Topology, res.Iters, res.Converged, res.Objective, nz, len(res.X))
	fmt.Printf("modeled time %.3f ms, wall %v\n",
		res.Stats.ModeledTime*1e3, sw.Elapsed().Round(time.Microsecond))
	if *out != "" {
		xm := mat.NewDenseData(len(res.X), 1, res.X)
		if err := matio.Save(*out, xm); err != nil {
			return err
		}
		fmt.Printf("wrote solution to %s\n", *out)
	}
	return nil
}

// cmdCluster runs spectral partitioning of the data columns.
func cmdCluster(args []string) error {
	fs := flag.NewFlagSet("cluster", flag.ContinueOnError)
	in, model, raw := operandFlags(fs)
	k := fs.Int("k", 2, "number of clusters")
	seed := fs.Uint64("seed", 1, "random seed")
	nodes, cores := platformFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := rawData(*in, *raw)
	if err != nil {
		return err
	}
	plat := cluster.NewPlatform(*nodes, *cores)
	op, err := buildOperator(a, plat, opSpec{model: *model, raw: *raw, seed: *seed})
	if err != nil {
		return err
	}
	res := solver.SpectralCluster(op, solver.SpectralOpts{Clusters: *k, Seed: *seed})
	sizes := make([]int, *k)
	for _, c := range res.Assign {
		sizes[c]++
	}
	fmt.Printf("%s on %s: %d columns into %d clusters, sizes %v\n",
		op.Name(), plat.Topology, len(res.Assign), *k, sizes)
	fmt.Printf("k-means inertia %.4f; %d power iterations, modeled %.3f ms\n",
		res.Inertia, res.Eigen.Iters, res.Eigen.Stats.ModeledTime*1e3)
	return nil
}

// operandFlags registers what power, lasso and cluster iterate on: the
// transform written by fit -out, or a baseline on the -in data.
func operandFlags(fs *flag.FlagSet) (in, model *string, raw *bool) {
	return fs.String("in", "", "data matrix (.csv or .edm); read by -raw, and by lasso always"),
		fs.String("model", "", "transform written by fit -out; required unless a baseline is chosen"),
		fs.Bool("raw", false, "iterate on the untransformed AᵀA baseline of -in")
}

// rawData loads the -in data when the solve runs on the AᵀA baseline; the
// transformed solve reads all it needs from -model.
func rawData(in string, raw bool) (*mat.Dense, error) {
	if !raw {
		return nil, nil
	}
	return loadNormalized(in)
}

// opSpec collects the operator-selection knobs shared by the solver
// subcommands: the transform file and the raw/SGD baseline switches.
type opSpec struct {
	model    string
	raw      bool
	sgdBatch int
	seed     uint64
}

// buildOperatorOn assembles a factory for the requested Gram operator: a
// baseline over a, or (DC)ᵀDC over the transform in spec.model. The factory
// constructs the operator on any communicator, which is what lets the
// fault supervisor rebuild it on the shrunk survivor communicator after a
// crash; the transform is read once, up front, and the factory only
// re-partitions.
func buildOperatorOn(a *mat.Dense, spec opSpec) (func(*cluster.Comm) dist.Operator, error) {
	if spec.model != "" && (spec.raw || spec.sgdBatch > 0) {
		return nil, fmt.Errorf("-model cannot be combined with -raw or -sgd")
	}
	switch {
	case spec.raw:
		return func(c *cluster.Comm) dist.Operator { return dist.NewDenseGram(c, a) }, nil
	case spec.sgdBatch > 0:
		return func(c *cluster.Comm) dist.Operator { return dist.NewBatchGram(c, a, spec.sgdBatch, spec.seed) }, nil
	case spec.model == "":
		return nil, fmt.Errorf("-model (a transform written by fit -out) or -raw is required")
	}
	body, err := os.ReadFile(spec.model)
	if err != nil {
		return nil, err
	}
	tr, err := exd.ReadTransform(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.model, err)
	}
	if a != nil && a.Cols != tr.N() {
		return nil, fmt.Errorf("%s codes %d columns but -in has %d", spec.model, tr.N(), a.Cols)
	}
	return func(c *cluster.Comm) dist.Operator {
		g, err := dist.NewExDGram(c, tr.D, tr.C)
		if err != nil {
			panic(err) // unreachable: ReadTransform checks that D has a column per row of C
		}
		return g
	}, nil
}

// buildOperator assembles the requested Gram operator on a fresh
// communicator for the given platform.
func buildOperator(a *mat.Dense, plat cluster.Platform, spec opSpec) (dist.Operator, error) {
	build, err := buildOperatorOn(a, spec)
	if err != nil {
		return nil, err
	}
	return build(cluster.NewComm(plat)), nil
}

// cliFaultPlan draws the chaos schedule the -faults flag injects: one crash
// (when there is a rank to spare), a few slowdowns, and a couple of Reduce
// corruptions spread over the run's expected collective schedule.
func cliFaultPlan(seed uint64, p int, horizon int64) *cluster.FaultPlan {
	crashes := 1
	if p <= 1 {
		crashes = 0 // a solo rank has no survivors to retry on
	}
	if horizon < 2 {
		horizon = 2
	}
	return cluster.RandomFaultPlan(seed, cluster.FaultConfig{
		P:       p,
		Horizon: horizon,
		Crashes: crashes, Slowdowns: 3, Corruptions: 2,
		MaxDelay: 0.25, MaxDelta: 0.01, MaxWord: 1 << 20,
	})
}

// printRecovery reports what the supervisor absorbed during a faulted solve.
func printRecovery(plan *cluster.FaultPlan, rec solver.Recovery) {
	fmt.Printf("faults: %d scheduled from seed %d; %d restarts, backoff %.3f ms, finished on P=%d\n",
		len(plan.Faults), plan.Seed, rec.Restarts, rec.BackoffTime*1e3, rec.FinalP)
	for _, cr := range rec.Crashes {
		fmt.Printf("  recovered: %v\n", error(cr))
	}
}

// loadVector reads a length-n vector from a matrix file shaped n×1 or 1×n.
func loadVector(path string, n int) ([]float64, error) {
	m, err := matio.Load(path)
	if err != nil {
		return nil, err
	}
	switch {
	case m.Cols == 1 && m.Rows == n:
		return m.Col(0, nil), nil
	case m.Rows == 1 && m.Cols == n:
		return append([]float64(nil), m.Row(0)...), nil
	default:
		return nil, fmt.Errorf("vector file %s is %dx%d, want length %d", path, m.Rows, m.Cols, n)
	}
}
