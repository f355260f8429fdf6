package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"extdict/internal/exd"
	"extdict/internal/mat"
	"extdict/internal/sparse"
)

func TestDictBaseName(t *testing.T) {
	cases := map[string]string{
		"D.edm":            "D",
		"/a/b/salinas.csv": "salinas",
		"dict":             "dict",
		"a/b/.hidden":      ".hidden",
	}
	for in, want := range cases {
		if got := dictBaseName(in); got != want {
			t.Errorf("dictBaseName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestRunFlagErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Error("run with no -dict should fail")
	}
	if err := run([]string{"-dict", "name="}); err == nil {
		t.Error("empty path in -dict should fail")
	}
	if err := run([]string{"-dict", "a=x.edm", "-dict", "a=y.edm"}); err == nil {
		t.Error("duplicate names should fail")
	}
	if err := run([]string{"-dict", "/nonexistent/dict.edm"}); err == nil {
		t.Error("missing dictionary file should fail")
	}
}

// writeTransform saves d as the dictionary of a transform file, as
// `extdict fit -out` writes one, whose C codes one column with no atoms.
func writeTransform(t *testing.T, d *mat.Dense) string {
	t.Helper()
	tr := &exd.Transform{D: d, C: &sparse.CSC{Rows: d.Cols, Cols: 1, ColPtr: []int{0, 0}}, DictIdx: make([]int, d.Cols)}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatalf("write transform: %v", err)
	}
	path := filepath.Join(t.TempDir(), "m.exd")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatalf("save: %v", err)
	}
	return path
}

func TestRunLoadsDictionaries(t *testing.T) {
	// A bad listen address makes run return right after the load phase, so
	// the load path is testable without signal plumbing.
	d := mat.NewDense(4, 6)
	for i := range d.Data {
		d.Data[i] = float64(i + 1)
	}
	path := writeTransform(t, d)
	err := run([]string{"-dict", path, "-addr", "256.0.0.1:0"})
	if err == nil {
		t.Fatal("unlistenable address should fail")
	}
	if strings.Contains(err.Error(), path) {
		t.Fatalf("the transform failed to load: %v", err)
	}
	if _, statErr := os.Stat(path); statErr != nil {
		t.Fatalf("transform file vanished: %v", statErr)
	}
}

func TestRunRejectsUnnormalizableDictionary(t *testing.T) {
	// A NaN entry, or a column whose squared norm overflows, would be
	// published as zeros or NaN; run must refuse it before it binds a
	// listener.
	for _, v := range []float64{math.NaN(), math.Inf(1), 1e200} {
		d := mat.NewDense(4, 6)
		for i := range d.Data {
			d.Data[i] = float64(i + 1)
		}
		d.Data[0] = v
		err := run([]string{"-dict", writeTransform(t, d), "-addr", "256.0.0.1:0"})
		if err == nil || !strings.Contains(err.Error(), "unit norm") {
			t.Errorf("entry %g: run error %v, want a normalization error", v, err)
		}
	}
}
