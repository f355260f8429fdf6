// Command extdict exposes the ExtDict framework on the command line:
// generate synthetic datasets, tune and fit the ExD transform for a target
// platform, and run the learning algorithms on raw or transformed data.
//
// Subcommands:
//
//	extdict gen   -preset salinas -out data.edm          # synthesize a dataset
//	extdict tune  -in data.edm -eps 0.1 -nodes 8 -cores 8
//	extdict fit   -in data.edm -eps 0.1 -nodes 2 -cores 8 -out m.exd
//	extdict power -model m.exd -k 10 -nodes 2 -cores 8
//	extdict power -in data.edm -raw -k 10                # untransformed baseline
//	extdict lasso -in data.edm -model m.exd -y obs.csv -lambda 0.05
//	extdict lasso -in data.edm -raw -y obs.csv -faults 7     # chaos-mode solve with recovery
//	extdict cluster -model m.exd -k 3
//
// Matrices are CSV (.csv) or the EDM binary format (.edm); columns are
// signals. Data is column-normalized automatically before transforming.
// fit pays the preprocessing once and writes the whole transform (D, C and
// the fit parameters) with -out; power, lasso and cluster read it back with
// -model, as extdict-serve does with -dict.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"extdict"
	"extdict/internal/cluster"
	"extdict/internal/dataset"
	"extdict/internal/mat"
	"extdict/internal/matio"
	"extdict/internal/perf"
	"extdict/internal/rng"
	"extdict/internal/solver"
	"extdict/internal/tune"
)

// Local aliases keep the flag-parsing code terse.
type perfObjective = perf.Objective

const (
	perfRuntime = perf.Runtime
	perfEnergy  = perf.Energy
	perfMemory  = perf.Memory
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "extdict:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: extdict <gen|tune|fit|power|lasso|cluster> [flags] (see -h of each subcommand)")
	}
	switch args[0] {
	case "gen":
		return cmdGen(args[1:])
	case "tune":
		return cmdTune(args[1:])
	case "fit":
		return cmdFit(args[1:])
	case "power":
		return cmdPower(args[1:])
	case "lasso":
		return cmdLasso(args[1:])
	case "cluster":
		return cmdCluster(args[1:])
	default:
		return fmt.Errorf("unknown subcommand %q (have gen, tune, fit, power, lasso, cluster)", args[0])
	}
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ContinueOnError)
	preset := fs.String("preset", "salinas", "dataset preset: "+strings.Join(dataset.PresetNames(), ", "))
	scale := fs.Float64("scale", 1, "column-count multiplier")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "", "output path (.csv or .edm); required")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("gen: -out is required")
	}
	p, err := dataset.Preset(*preset, *scale)
	if err != nil {
		return err
	}
	u, err := dataset.GenerateUnion(p, rng.New(*seed))
	if err != nil {
		return err
	}
	if err := matio.Save(*out, u.A); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %dx%d (%s)\n", *out, u.A.Rows, u.A.Cols, dataset.PresetDescription(*preset))
	return nil
}

func platformFlags(fs *flag.FlagSet) (nodes, cores *int) {
	return fs.Int("nodes", 1, "target platform: number of nodes"),
		fs.Int("cores", 4, "target platform: cores per node")
}

// loadNormalized reads the -in data matrix and normalizes its columns.
func loadNormalized(path string) (*mat.Dense, error) {
	if path == "" {
		return nil, fmt.Errorf("-in is required")
	}
	m, err := matio.Load(path)
	if err != nil {
		return nil, err
	}
	m.NormalizeColumns()
	return m, nil
}

func cmdTune(args []string) error {
	fs := flag.NewFlagSet("tune", flag.ContinueOnError)
	in := fs.String("in", "", "input matrix (.csv or .edm); required")
	eps := fs.Float64("eps", 0.1, "transformation error tolerance")
	seed := fs.Uint64("seed", 1, "random seed")
	objective := fs.String("objective", "runtime", "tuning objective: runtime, energy, or memory")
	nodes, cores := platformFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	obj, err := parseObjective(*objective)
	if err != nil {
		return err
	}
	a, err := loadNormalized(*in)
	if err != nil {
		return err
	}
	plat := cluster.NewPlatform(*nodes, *cores)
	sw := perf.StartWall()
	res, err := tune.Tune(a, plat, tune.Config{
		Epsilon: *eps, Objective: obj, Workers: runtime.GOMAXPROCS(0), Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("tuned for %s (%s objective) in %v over %d nested prefixes %v\n",
		plat.Topology, obj, sw.Elapsed().Round(time.Millisecond), res.Rounds, res.SubsetSizes)
	fmt.Printf("%-7s %-9s %-9s %-9s %-12s %s\n", "L", "alpha", "feasible", "error", "pred-cost", "")
	for _, c := range res.Candidates {
		if c.Pruned {
			fmt.Printf("%-7d %-9s %-9s %-9s %-12.3g  pruned: its nnz=0 bound cannot win\n",
				c.L, "-", "-", "-", c.Estimate.Cost(obj))
			continue
		}
		marker := ""
		if c.L == res.Best.L {
			marker = "  <= selected"
		}
		fmt.Printf("%-7d %-9.3f %-9v %-9.4f %-12.3g%s\n",
			c.L, c.Alpha, c.Feasible, c.AchievedError, c.Estimate.Cost(obj), marker)
	}
	return nil
}

func parseObjective(s string) (perfObjective, error) {
	switch strings.ToLower(s) {
	case "runtime":
		return perfRuntime, nil
	case "energy":
		return perfEnergy, nil
	case "memory":
		return perfMemory, nil
	}
	return perfRuntime, fmt.Errorf("unknown objective %q", s)
}

func cmdFit(args []string) error {
	fs := flag.NewFlagSet("fit", flag.ContinueOnError)
	in := fs.String("in", "", "input matrix (.csv or .edm); required")
	eps := fs.Float64("eps", 0.1, "transformation error tolerance")
	l := fs.Int("L", 0, "dictionary size (0 = tune automatically)")
	seed := fs.Uint64("seed", 1, "random seed")
	out := fs.String("out", "", "optional path to write the transform, for -model and extdict-serve -dict")
	nodes, cores := platformFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := loadNormalized(*in)
	if err != nil {
		return err
	}
	sw := perf.StartWall()
	model, err := extdict.Fit(a, cluster.NewPlatform(*nodes, *cores), extdict.Options{
		Epsilon: *eps, L: *l, Workers: runtime.GOMAXPROCS(0), Seed: *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("fitted in %v: L=%d nnz(C)=%d alpha=%.3f achieved-error=%.4f memory=%d words (raw %d)\n",
		sw.Elapsed().Round(time.Millisecond), model.L(), model.NNZ(), model.Alpha(),
		model.RelError(a), model.MemoryWords(), a.Rows*a.Cols)
	if *out != "" {
		if err := model.Save(*out); err != nil {
			return err
		}
		fmt.Printf("wrote transform to %s\n", *out)
	}
	return nil
}

func cmdPower(args []string) error {
	fs := flag.NewFlagSet("power", flag.ContinueOnError)
	in, model, raw := operandFlags(fs)
	k := fs.Int("k", 10, "number of eigenvalues")
	seed := fs.Uint64("seed", 1, "random seed")
	faults := fs.Uint64("faults", 0, "inject a deterministic fault schedule drawn from this seed and recover through the supervisor (0 = off)")
	nodes, cores := platformFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	a, err := rawData(*in, *raw)
	if err != nil {
		return err
	}
	plat := cluster.NewPlatform(*nodes, *cores)

	build, err := buildOperatorOn(a, opSpec{model: *model, raw: *raw, seed: *seed})
	if err != nil {
		return err
	}
	op := build(cluster.NewComm(plat))
	opts := solver.PowerOpts{Components: *k, Seed: *seed}
	var res solver.PowerResult
	if *faults != 0 {
		// Each power iteration is one Allreduce = two collective phases;
		// deflation runs the default iteration budget per component.
		plan := cliFaultPlan(*faults, plat.Topology.P(), int64(2*300*(*k)))
		comm := cluster.NewComm(plat)
		comm.InstallFaultPlan(plan)
		var rec solver.Recovery
		res, rec, err = solver.SupervisedPower(comm, build, opts, solver.SupervisorOpts{})
		if err != nil {
			return err
		}
		printRecovery(plan, rec)
	} else {
		res = solver.PowerMethod(op, opts)
	}
	fmt.Printf("%s on %s: %d iterations, modeled time %.3f ms, wall %v\n",
		op.Name(), plat.Topology, res.Iters,
		res.Stats.ModeledTime*1e3, res.Stats.Wall.Round(time.Microsecond))
	for i, v := range res.Eigenvalues {
		fmt.Printf("lambda[%d] = %.6g\n", i+1, v)
	}
	return nil
}
