package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"extdict/internal/experiments"
)

// goldenExperiments are the paper's eleven artifacts, every one of which
// carries its numbers as metrics: the α(L) curves of fig4–fig6, the tuned
// dictionaries and storage of Tables II and III, the modeled iteration
// costs of fig7 and fig8, and the solver artifacts — fig9's and fig11's
// LASSO solves and fig10's and fig12's power-method solves. fig7–fig10
// price their runs with ModeledTime, so their times are deterministic too.
var goldenExperiments = []string{"fig4", "fig5", "fig6", "tab2", "fig7", "tab3", "fig8", "fig9", "fig10", "fig11", "fig12"}

// goldenCell is one pinned run: an experiment at a scale, recorded under its
// own id.
type goldenCell struct {
	id, exp string
	scale   float64
}

// goldenCells are the goldenExperiments at scale 0.05 plus tab3 at scale
// 0.2. At 0.05 the tuner picks the same L on every platform; 0.2 is the
// smallest scale at which it does not (cancercell picks L = 54 at P = 1 and
// L = 38 at P ≥ 4), so a tuner that ignored the platform fails the golden.
func goldenCells() []goldenCell {
	cells := make([]goldenCell, 0, len(goldenExperiments)+1)
	for _, id := range goldenExperiments {
		cells = append(cells, goldenCell{id: id, exp: id, scale: 0.05})
	}
	return append(cells, goldenCell{id: "tab3_scale0.2", exp: "tab3", scale: 0.2})
}

// TestExperimentMetricsGolden pins every metric of the goldenCells against
// a committed golden, compared exactly, so a change that moves a paper
// number fails go test. It holds at any GOMAXPROCS. A runner that reports
// no metric fails it even while recording, so an artifact cannot go back
// to a table alone. Regenerate after a deliberate
// change with
//
//	UPDATE_EXPERIMENT_METRICS=1 go test -run TestExperimentMetricsGolden ./cmd/extdict-bench/
func TestExperimentMetricsGolden(t *testing.T) {
	reg := registry(10, 10)
	cells := goldenCells()
	got := map[string]map[string]float64{}
	for _, c := range cells {
		art, err := reg[c.exp](experiments.Config{Scale: c.scale, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		if len(art.Metrics) == 0 {
			t.Fatalf("%s reports no metric, so the golden cannot pin it", c.id)
		}
		got[c.id] = art.Metrics
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
	for _, c := range cells {
		id := c.id
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
