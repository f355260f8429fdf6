package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

func TestRegistryCoversEveryArtifact(t *testing.T) {
	reg := registry(3, 3)
	want := []string{"fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "tab2", "tab3", "serve"}
	if len(reg) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(want))
	}
	for _, id := range want {
		if _, ok := reg[id]; !ok {
			t.Fatalf("missing experiment %q", id)
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
	cfg := benchConfig{Scale: 0.05, Seed: 9, Workers: 2}
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

// TestJSONOutputParses is the CI gate for the -json pipeline: the report
// must be valid JSON carrying the schema tag, the three kernel baselines,
// and non-empty metrics for an experiment that exposes them.
func TestJSONOutputParses(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-json", "-exp", "tab2", "-scale", "0.05", "-trials", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	var rep jsonReport
	if err := json.Unmarshal(buf.Bytes(), &rep); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if rep.Schema != "extdict-bench/v1" {
		t.Fatalf("schema %q", rep.Schema)
	}
	if len(rep.Kernels) != 3 {
		t.Fatalf("want 3 kernel baselines, got %d", len(rep.Kernels))
	}
	for _, k := range rep.Kernels {
		if k.NsPerOp <= 0 || k.RefNsPerOp <= 0 {
			t.Fatalf("kernel %s has non-positive timing: %+v", k.Name, k)
		}
		if k.Intensity <= 0 {
			t.Fatalf("kernel %s carries no arithmetic intensity: %+v", k.Name, k)
		}
		// The roofline story the report encodes: BLAS-2 below the 0.4
		// flop/byte machine balance, the blocked ATA's panel reuse above it.
		if wantCompute := k.Name == "ATA"; (k.Intensity >= 0.4) != wantCompute {
			t.Fatalf("kernel %s intensity %.4f on the wrong side of the machine balance", k.Name, k.Intensity)
		}
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "tab2" {
		t.Fatalf("experiments: %+v", rep.Experiments)
	}
	if len(rep.Experiments[0].Metrics) == 0 {
		t.Fatal("tab2 reported no metrics")
	}
}
