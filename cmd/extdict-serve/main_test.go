package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"extdict/internal/mat"
	"extdict/internal/matio"
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

func TestRunLoadsDictionaries(t *testing.T) {
	// A bad listen address makes run return right after the load phase, so
	// the load path is testable without signal plumbing.
	dir := t.TempDir()
	path := filepath.Join(dir, "d.edm")
	d := mat.NewDense(4, 6)
	for i := range d.Data {
		d.Data[i] = float64(i + 1)
	}
	if err := matio.Save(path, d); err != nil {
		t.Fatalf("save: %v", err)
	}
	err := run([]string{"-dict", path, "-addr", "256.0.0.1:0"})
	if err == nil {
		t.Fatal("unlistenable address should fail")
	}
	if _, statErr := os.Stat(path); statErr != nil {
		t.Fatalf("dictionary file vanished: %v", statErr)
	}
}

func TestRunRejectsUnnormalizableDictionary(t *testing.T) {
	// A column whose squared norm overflows would be published as zeros
	// or NaN; run must refuse it before it binds a listener.
	for _, v := range []float64{math.Inf(1), 1e200} {
		path := filepath.Join(t.TempDir(), "d.edm")
		d := mat.NewDense(4, 6)
		for i := range d.Data {
			d.Data[i] = float64(i + 1)
		}
		d.Data[0] = v
		if err := matio.Save(path, d); err != nil {
			t.Fatalf("save: %v", err)
		}
		err := run([]string{"-dict", path, "-addr", "256.0.0.1:0"})
		if err == nil || !strings.Contains(err.Error(), "unit norm") {
			t.Errorf("entry %g: run error %v, want a normalization error", v, err)
		}
	}
}
