package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// smallConfig runs a workload on presets scaled down to a few hundred
// columns, for one pass over its inputs.
func smallConfig() config { return config{seed: 1, seconds: 1e-3, scale: 0.05, setups: 1} }

// countMetrics must repeat exactly across runs with one seed.
var countMetrics = []string{
	"tune.rounds", "tune.subset_cols", "exd.l", "exd.nnz", "omp.iters",
	"solver.iters", "cluster.path_words", "cluster.phases", "cluster.max_bytes",
}

// TestWorkloadsSmall runs every workload twice, untraced and traced, at small
// scale: each must pass its output checks, report every metric finite, and
// repeat its counts exactly.
func TestWorkloadsSmall(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			out, err := w.run(smallConfig(), nil)
			if err != nil {
				t.Fatalf("untraced run: %v", err)
			}
			if _, err := report(out, false); err != nil {
				t.Fatalf("untraced report: %v", err)
			}
			if out.failed != 0 || out.opP50MS <= 0 || out.opsPerS <= 0 {
				t.Fatalf("untraced outcome %+v: want no failures and positive times", out)
			}

			var traced [2]result
			for i := range traced {
				out, err := w.run(smallConfig(), newTracer())
				if err != nil {
					t.Fatalf("traced run %d: %v", i, err)
				}
				for name := range out.layer {
					if !defined(perLayer, name) {
						t.Errorf("workload reports %s, which perLayer does not list", name)
					}
				}
				if traced[i], err = report(out, true); err != nil {
					t.Fatalf("traced report %d: %v", i, err)
				}
			}
			for _, name := range countMetrics {
				a, b := traced[0].Metrics[name].Value, traced[1].Metrics[name].Value
				if math.Float64bits(a) != math.Float64bits(b) {
					t.Errorf("%s: %v then %v with one seed", name, a, b)
				}
			}
		})
	}
}

func defined(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

// TestBenchmarkJSON checks that BENCHMARK.json names exactly the workloads
// and metrics this program runs and reports, with valid names and units.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var b struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if i < len(workloads) && w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	for _, c := range []struct {
		kind string
		json []def
		prog []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.json) != len(c.prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.json), len(c.prog))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.prog[i].name || m.Unit != c.prog[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]",
					c.kind, i, m.Name, m.Unit, c.prog[i].name, c.prog[i].unit)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s: invalid name %q or unit %q", c.kind, m.Name, m.Unit)
			}
		}
	}
}

// TestRunRejectsBadArgs checks that a bad invocation exits 2 without a
// result line.
func TestRunRejectsBadArgs(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "serve", "--seconds", "0"},
		{"--workload", "serve", "--trace", "2"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || strings.Contains(stdout.String(), "correct") {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestSameSpectrum(t *testing.T) {
	raw := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	near := make([]float64, len(raw))
	for i, v := range raw {
		near[i] = v * 1.05
	}
	if err := sameSpectrum(near, raw); err != nil {
		t.Errorf("5%% apart: %v", err)
	}
	near[9] = 1.2
	if err := sameSpectrum(near, raw); err == nil {
		t.Error("20% apart: want an error")
	}
	if err := sameSpectrum(near[:3], raw); err == nil {
		t.Error("3 eigenvalues: want an error")
	}
}

func TestMedianPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median %v, want 3", m)
	}
	if m := median(xs[:4]); m != 3 {
		t.Errorf("median of 5 1 4 2 = %v, want 3", m)
	}
	if p := percentile(xs, 0.99); p != 5 {
		t.Errorf("p99 %v, want 5", p)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}
