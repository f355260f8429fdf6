package main

import (
	"path/filepath"
	"strings"
	"testing"

	"extdict"
	"extdict/internal/mat"
	"extdict/internal/matio"
)

func TestRunRejectsBadInvocations(t *testing.T) {
	cases := [][]string{
		{},
		{"frobnicate"},
		{"gen"},                          // missing -out
		{"tune"},                         // missing -in
		{"fit"},                          // missing -in
		{"power"},                        // neither -model nor -raw
		{"cluster", "-raw"},              // -raw without -in
		{"power", "-model", "/nope.exd"}, // unreadable transform
		{"tune", "-in", "/nope.csv"},     // unreadable input
		{"tune", "-in", "x.csv", "-objective", "speed"}, // bad objective
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

func TestEndToEndPipeline(t *testing.T) {
	dir := t.TempDir()
	data := filepath.Join(dir, "d.edm")
	model := filepath.Join(dir, "m.exd")
	other := filepath.Join(dir, "other.edm") // same M, fewer columns

	// An observation vector for the lasso subcommand: first row of the
	// dataset works fine as a synthetic target.
	yPath := filepath.Join(dir, "y.csv")

	steps := [][]string{
		{"gen", "-preset", "salinas", "-scale", "0.04", "-seed", "5", "-out", data},
		{"tune", "-in", data, "-eps", "0.1", "-nodes", "2", "-cores", "2"},
		{"tune", "-in", data, "-eps", "0.1", "-objective", "memory"},
		{"fit", "-in", data, "-eps", "0.1", "-L", "40"},
		{"fit", "-in", data, "-eps", "0.1", "-nodes", "1", "-cores", "2", "-out", model},
		{"power", "-model", model, "-k", "2", "-nodes", "1", "-cores", "2"},
		{"power", "-in", data, "-k", "2", "-raw"},
		{"lasso", "-in", data, "-model", model, "-y", yPath, "-iters", "50"},
		{"lasso", "-in", data, "-y", yPath, "-raw", "-iters", "20", "-out", filepath.Join(dir, "x.csv")},
		{"lasso", "-in", data, "-y", yPath, "-sgd", "16", "-iters", "20"},
		{"cluster", "-in", data, "-k", "2", "-raw"},
		{"cluster", "-model", model, "-k", "2"},
		// Chaos mode: the supervisor must absorb the injected faults and
		// still return a solution.
		{"lasso", "-in", data, "-y", yPath, "-raw", "-iters", "60", "-faults", "7", "-cores", "4"},
		{"power", "-in", data, "-k", "2", "-raw", "-faults", "7", "-cores", "4"},
		{"power", "-model", model, "-k", "2", "-faults", "7", "-cores", "4"},
		{"gen", "-preset", "salinas", "-scale", "0.02", "-seed", "5", "-out", other},
	}
	cols := 0 // of the generated data
	for i, args := range steps {
		// Write the observation vector once the dataset exists (the gen
		// step must run first).
		if i == 1 {
			m, err := matio.Load(data)
			if err != nil {
				t.Fatal(err)
			}
			cols = m.Cols
			y := matDenseFromSlice(m.Col(0, nil)) // observations live in signal space (length M)
			if err := matio.Save(yPath, y); err != nil {
				t.Fatal(err)
			}
		}
		if err := run(args); err != nil {
			t.Fatalf("run(%v): %v", args, err)
		}
	}
	// Refused: -model with a baseline, and a transform of other data.
	for _, args := range [][]string{
		{"power", "-model", model, "-raw", "-in", data},
		{"lasso", "-in", other, "-model", model, "-y", yPath},
	} {
		if err := run(args); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
	// The file fit -out wrote is the facade's model format.
	m, err := extdict.LoadModel(model, extdict.NewPlatform(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if m.N() != cols {
		t.Fatalf("loaded model codes %d columns, the data has %d", m.N(), cols)
	}
}

// matDenseFromSlice wraps a vector as a 1×n matrix for matio.
func matDenseFromSlice(v []float64) *mat.Dense {
	out := mat.NewDense(1, len(v))
	copy(out.Row(0), v)
	return out
}

func TestParseObjective(t *testing.T) {
	for in, want := range map[string]perfObjective{
		"runtime": perfRuntime, "Energy": perfEnergy, "MEMORY": perfMemory,
	} {
		got, err := parseObjective(in)
		if err != nil || got != want {
			t.Fatalf("parseObjective(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := parseObjective("fast"); err == nil || !strings.Contains(err.Error(), "unknown") {
		t.Fatal("bad objective accepted")
	}
}
