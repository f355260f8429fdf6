package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// parseSrc builds a single-file Package from source text, without type
// checking — the directive machinery is purely syntactic.
func parseSrc(t *testing.T, filename, src, importPath string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return &Package{
		Dir:        filepath.Dir(filename),
		ImportPath: importPath,
		Fset:       fset,
		Files:      []*ast.File{f},
	}
}

func TestDirectiveOnLastLineOfFile(t *testing.T) {
	// The directive is the file's final byte run, with no trailing newline:
	// suppression must still index it by line.
	src := "package fixture\n\n" +
		"var tol = 0.1\n" +
		"var bad = tol == 0.1 //lint:ignore nofloateq fixture compares an exact sentinel"
	pkg := parseSrc(t, "last.go", src, "extdict/internal/solver")
	if findings := runOne(pkg, []*Analyzer{NoFloatEq}); len(findings) != 0 {
		t.Fatalf("last-line directive did not suppress: %v", findings)
	}
}

func TestDirectiveNamesMultipleChecks(t *testing.T) {
	// The comparison and the panic share a line, so one directive must cover
	// findings from two different checks.
	src := `package fixture

func f(a, b float64) {
	//lint:ignore nofloateq,panicmsg sentinel comparison and legacy message, both audited
	if a == 0.5 { panic("no prefix") }
}
`
	pkg := parseSrc(t, "multi.go", src, "extdict/internal/solver")
	findings := runOne(pkg, []*Analyzer{NoFloatEq, PanicMsg})
	if len(findings) != 0 {
		t.Fatalf("multi-check directive did not suppress both: %v", findings)
	}
	// The same source without the directive fires both checks.
	bare := strings.Replace(src, "\t//lint:ignore nofloateq,panicmsg sentinel comparison and legacy message, both audited\n", "", 1)
	pkg = parseSrc(t, "multi.go", bare, "extdict/internal/solver")
	if findings := runOne(pkg, []*Analyzer{NoFloatEq, PanicMsg}); len(findings) != 2 {
		t.Fatalf("expected both checks to fire without the directive, got %v", findings)
	}
}

func TestDirectiveInsideStructLiteral(t *testing.T) {
	src := `package fixture

type gate struct{ open bool }

var tol = 0.25

var cfg = gate{
	//lint:ignore nofloateq tolerance is a power of two, comparison is exact
	open: tol == 0.25,
}
`
	pkg := parseSrc(t, "lit.go", src, "extdict/internal/solver")
	if findings := runOne(pkg, []*Analyzer{NoFloatEq}); len(findings) != 0 {
		t.Fatalf("struct-literal directive did not suppress: %v", findings)
	}
}

func TestSuppressedFindingsAreExemptFromFix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "demo.go")
	src := `package demo

func a() { panic("one") }

func b() {
	//lint:ignore panicmsg legacy message preserved for log scrapers
	panic("two")
}
`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &Package{Dir: dir, ImportPath: "demo", Fset: fset, Files: []*ast.File{f}}

	findings := runOne(pkg, []*Analyzer{PanicMsg})
	if len(findings) != 1 {
		t.Fatalf("want exactly the unsuppressed finding, got %v", findings)
	}
	fixed, remaining, err := ApplyFixes(findings)
	if err != nil {
		t.Fatal(err)
	}
	if len(fixed) != 1 || len(remaining) != 0 {
		t.Fatalf("fixed %d remaining %d, want 1/0", len(fixed), len(remaining))
	}
	out, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := string(out)
	if !strings.Contains(got, `panic("demo: one")`) {
		t.Errorf("unsuppressed panic was not fixed:\n%s", got)
	}
	if !strings.Contains(got, `panic("two")`) || strings.Contains(got, `panic("demo: two")`) {
		t.Errorf("suppressed panic must stay untouched:\n%s", got)
	}
}

func TestApplyFixesRejectsOverlap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "demo.go")
	if err := os.WriteFile(path, []byte("package demo\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	overlap := []Finding{
		{Check: "x", Fix: &SuggestedFix{Edits: []TextEdit{{Filename: path, Start: 0, End: 7, NewText: "a"}}}},
		{Check: "x", Fix: &SuggestedFix{Edits: []TextEdit{{Filename: path, Start: 5, End: 12, NewText: "b"}}}},
	}
	if _, _, err := ApplyFixes(overlap); err == nil {
		t.Fatal("overlapping fixes must be rejected")
	}
}
