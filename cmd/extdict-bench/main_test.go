package main

import (
	"io"
	"strings"
	"testing"

	"extdict/internal/experiments"
)

// TestRegistryCoversEveryArtifact is half of the guard that keeps every
// artifact pinned: the registry runs exactly the golden's artifacts, so a
// new experiment cannot join it without joining the golden. The other half
// is TestExperimentMetricsGolden's check that every runner reports a
// metric.
func TestRegistryCoversEveryArtifact(t *testing.T) {
	reg := registry(3, 3)
	if len(reg) != len(goldenExperiments) {
		t.Fatalf("registry has %d entries (%s), the golden pins %d",
			len(reg), strings.Join(keys(reg), ", "), len(goldenExperiments))
	}
	for _, id := range goldenExperiments {
		if _, ok := reg[id]; !ok {
			t.Fatalf("golden experiment %q is not in the registry", id)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run([]string{"-exp", "fig99"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("unknown experiment accepted: %v", err)
	}
}

func TestRunSingleExperimentSmall(t *testing.T) {
	// The cheapest artifact at a tiny scale keeps this an actual
	// end-to-end run of flag parsing, driver, and renderer.
	if err := run([]string{"-exp", "tab3", "-scale", "0.05", "-trials", "2"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunnersRenderTables(t *testing.T) {
	cfg := experiments.Config{Scale: 0.05, Seed: 9, Workers: 2}
	reg := registry(2, 2)
	for _, id := range []string{"fig5", "tab2"} {
		art, err := reg[id](cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if !strings.Contains(art.Table, "---") {
			t.Fatalf("%s rendered no table:\n%s", id, art.Table)
		}
	}
}
