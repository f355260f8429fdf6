package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"extdict/internal/mat"
)

// goldenExperiments are the artifacts whose metrics carry the paper's
// numbers: fig4's α(L) curve, fig7's per-platform improvements and chosen
// L, Table II's tuned dictionaries, and the solver artifacts — fig9's and
// fig11's LASSO solves and fig10's and fig12's power-method solves. fig9
// and fig10 price their runs with ModeledTime, so their times are
// deterministic too.
var goldenExperiments = []string{"fig4", "fig7", "tab2", "fig9", "fig10", "fig11", "fig12"}

// wallClockMetric reports whether a metric key is a timing, which varies
// run to run and so stays out of the golden.
func wallClockMetric(key string) bool {
	return strings.HasPrefix(key, "tuning_ms_") || strings.HasPrefix(key, "transf_ms_")
}

// TestExperimentMetricsGolden pins every deterministic metric of the
// goldenExperiments at a small scale against a committed golden, compared
// exactly, so a change that moves a paper number fails go test. Regenerate
// after a deliberate change with
//
//	UPDATE_EXPERIMENT_METRICS=1 go test -run TestExperimentMetricsGolden ./cmd/extdict-bench/
func TestExperimentMetricsGolden(t *testing.T) {
	// ParMulVecT adds one partial sum per worker, so the LASSO iterates of
	// fig9 and fig11 (whose D has 1600 and 576 rows, past the parallel
	// threshold) follow mat.Workers in their last bits. The golden pins the
	// serial path, so it holds at any GOMAXPROCS.
	defer func(w int) { mat.Workers = w }(mat.Workers)
	mat.Workers = 1
	reg := registry(10, 10)
	cfg := benchConfig{Scale: 0.05, Seed: 1}
	got := map[string]map[string]float64{}
	for _, id := range goldenExperiments {
		art, err := reg[id](cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		m := map[string]float64{}
		for k, v := range art.Metrics {
			if !wallClockMetric(k) {
				m[k] = v
			}
		}
		got[id] = m
	}
	enc, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	enc = append(enc, '\n')

	golden := filepath.Join("testdata", "metrics.golden.json")
	if os.Getenv("UPDATE_EXPERIMENT_METRICS") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, enc, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("recorded %s", golden)
		return
	}
	raw, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("no metrics golden (%v); record one with UPDATE_EXPERIMENT_METRICS=1", err)
	}
	var want map[string]map[string]float64
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("golden %s: %v", golden, err)
	}
	var diffs []string
	for _, id := range goldenExperiments {
		for k, w := range want[id] {
			if g, ok := got[id][k]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s.%s: gone (want %v)", id, k, w))
			} else if g != w {
				diffs = append(diffs, fmt.Sprintf("%s.%s: got %v, want %v", id, k, g, w))
			}
		}
		for k, g := range got[id] {
			if _, ok := want[id][k]; !ok {
				diffs = append(diffs, fmt.Sprintf("%s.%s: new (got %v)", id, k, g))
			}
		}
	}
	if len(diffs) == 0 {
		return
	}
	sort.Strings(diffs)
	t.Fatalf("experiment metrics drifted from %s:\n  %s\n"+
		"if deliberate, regenerate with UPDATE_EXPERIMENT_METRICS=1",
		golden, strings.Join(diffs, "\n  "))
}
