// Command perfbench is the repository's benchmark. One invocation runs one
// workload from a seed for a fixed wall-clock budget, checks the workload's
// outputs, and prints its metrics as a single JSON line:
//
//	bash perfbench/run.sh --workload preprocess --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1 it
// carries the per-layer metrics, taken from spans the benchmark records
// around each call it makes into a layer, and the spans themselves are
// written to --trace-dir. README.md explains every workload and metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"

	"extdict/internal/mat"
)

// heldOutSeed is never used while tuning the benchmark or a change; a
// claimed gain must also hold on it.
const heldOutSeed = 20171

// metricDef names one metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every workload reports with --trace 0. The
// names are shared by all workloads so each has one bound; what "op" means
// per workload is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"op_p50_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer lists the metrics every workload reports with --trace 1. A
// workload that never calls a layer reports that layer's metrics as 0.
var perLayer = []metricDef{
	{"tune.tune_s", "s"},
	{"tune.rounds", "count"},
	{"tune.subset_cols", "count"},
	{"exd.fit_s", "s"},
	{"exd.l", "count"},
	{"exd.nnz", "count"},
	{"exd.rel_error", "ratio"},
	{"omp.gram_s", "s"},
	{"omp.encode_s", "s"},
	{"omp.iters", "count"},
	{"omp.panel_us", "us"},
	{"dist.apply_us.p50", "us"},
	{"dist.apply_us.p99", "us"},
	{"solver.iters", "count"},
	{"solver.solve_s", "s"},
	{"solver.self_s", "s"},
	{"sparse.csc_us", "us"},
	{"mat.dict_us", "us"},
	{"mat.block_us", "us"},
	{"cluster.rendezvous_us", "us"},
	{"cluster.path_words", "count"},
	{"cluster.phases", "count"},
	{"cluster.max_bytes", "bytes"},
	{"serve.mean_batch", "count"},
	{"serve.panels", "count"},
	{"serve.shed", "count"},
	{"serve.failed", "count"},
	{"serve.p99_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"loadgen.marshal_us", "us"},
	{"trace.overhead_frac", "ratio"},
}

// config is what a workload needs to know about its run.
type config struct {
	seed    uint64
	seconds float64 // measured wall-clock budget
	scale   float64 // dataset scale: 1 in benchmark runs, smaller in tests
	setups  int     // repeated set-ups; setup_s is their median
}

// outcome is what a workload measured. Times are medians over the run.
type outcome struct {
	attempted, failed int
	setupS            []float64
	opP50MS           float64
	opsPerS           float64
	// layer holds the per-layer metrics (trace runs only), keyed by name.
	layer map[string]float64
}

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(cfg config, t *tracer) (outcome, error)
}

var workloads = []workload{
	{"preprocess", runPreprocess},
	{"solve-exd", runSolveExD},
	{"solve-raw", runSolveRaw},
	{"serve", runServe},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: preprocess, solve-exd, solve-raw or serve")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measured wall-clock budget")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	traceDir := fs.String("trace-dir", "", "directory for the span file of a traced run (empty = do not write)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {preprocess|solve-exd|solve-raw|serve}, --seconds > 0 and --trace 0|1\n")
		return 2
	}

	cfg := config{seed: *seed, seconds: *seconds, scale: 1, setups: 5}
	var t *tracer
	if *trace == 1 {
		t = newTracer()
	}
	env := environment(cfg.seed)
	env["workload"] = w.name
	env["trace"] = *trace
	writeJSONLine(stdout, map[string]any{"env": env})

	out, err := w.run(cfg, t)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		writeJSONLine(stdout, result{Correct: false, Attempted: max(out.attempted, 1),
			Failed: max(out.failed, 1), Metrics: map[string]metricValue{}})
		return 1
	}
	res, err := report(out, t != nil)
	if err == nil && t != nil && *traceDir != "" {
		err = t.write(filepath.Join(*traceDir,
			fmt.Sprintf("perfbench-trace-%s-seed%d.json", w.name, cfg.seed)), w.name, cfg.seed)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, def := range metricList(t != nil) {
		fmt.Fprintf(stdout, "%-24s %14.6g %s\n", def.name, res.Metrics[def.name].Value, def.unit)
	}
	writeJSONLine(stdout, res)
	return 0
}

func metricList(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// report turns an outcome into the result line: the end-to-end metrics for
// an untraced run, every per-layer metric for a traced one.
func report(out outcome, traced bool) (result, error) {
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed,
		Metrics: map[string]metricValue{}}
	if out.attempted < 1 {
		return res, errors.New("no operation attempted")
	}
	values := out.layer
	if !traced {
		values = map[string]float64{
			"setup_s":     median(out.setupS),
			"peak_rss_mb": peakRSSMB(),
			"op_p50_ms":   out.opP50MS,
			"ops_per_s":   out.opsPerS,
		}
	}
	for _, def := range metricList(traced) {
		v := values[def.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return res, fmt.Errorf("metric %s is not finite", def.name)
		}
		res.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
	}
	return res, nil
}

func writeJSONLine(w io.Writer, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintf(w, "{\"error\": %q}\n", err.Error())
		return
	}
	fmt.Fprintf(w, "%s\n", b)
}

// peakRSSMB is the process's peak resident set so far, in MiB: work or
// memory moved into set-up still shows in it.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// environment records what the numbers were measured on.
func environment(seed uint64) map[string]any {
	return map[string]any{
		"seed":          seed,
		"held_out_seed": heldOutSeed,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"workers":       mat.Workers,
		"go":            runtime.Version(),
		"goarch":        runtime.GOARCH,
		"cpu":           cpuModel(),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" where
// that file does not exist).
func cpuModel() string {
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// median returns the middle value (mean of the two middle values for an
// even count) of xs, or NaN for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile reads the q-quantile of xs with the nearest-rank rule.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}
