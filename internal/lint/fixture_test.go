package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe extracts the quoted regexes of a // want "..." comment; backticks
// quote regexes that themselves contain double quotes.
var (
	wantRe         = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)
	wantBacktickRe = regexp.MustCompile("`([^`]*)`")
)

// runFixture parses one fixture file as a standalone package pretending to
// live at importPath, runs the analyzer through the real engine (so
// suppression directives apply), and diffs the findings against the
// fixture's // want "regex" comments line by line.
func runFixture(t *testing.T, a *Analyzer, fixture, importPath string) {
	t.Helper()
	pkg := parseFixture(t, fixture, importPath)
	f := pkg.Files[0]
	fset := pkg.Fset
	findings := runOne(pkg, []*Analyzer{a})

	// line -> pending expectation regexes.
	wants := make(map[int][]string)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			rest, ok := strings.CutPrefix(text, "want ")
			if !ok {
				continue
			}
			line := fset.Position(c.Pos()).Line
			re := wantRe
			if strings.Contains(rest, "`") {
				re = wantBacktickRe
			}
			for _, m := range re.FindAllStringSubmatch(rest, -1) {
				wants[line] = append(wants[line], m[1])
			}
		}
	}

	for _, fd := range findings {
		if !matchWant(t, wants, fd) {
			t.Errorf("%s: unexpected finding: %s", filepath.Base(fixture), fd)
		}
	}
	for line, res := range wants {
		for _, re := range res {
			t.Errorf("%s:%d: expected finding matching %q, got none", filepath.Base(fixture), line, re)
		}
	}
}

// matchWant consumes the first pending expectation on the finding's line
// that matches its message.
func matchWant(t *testing.T, wants map[int][]string, fd Finding) bool {
	t.Helper()
	res := wants[fd.Pos.Line]
	for i, re := range res {
		ok, err := regexp.MatchString(re, fmt.Sprintf("%s (%s)", fd.Message, fd.Check))
		if err != nil {
			t.Fatalf("bad want regex %q: %v", re, err)
		}
		if ok {
			wants[fd.Pos.Line] = append(res[:i], res[i+1:]...)
			if len(wants[fd.Pos.Line]) == 0 {
				delete(wants, fd.Pos.Line)
			}
			return true
		}
	}
	return false
}

// runFixtureExpectNone runs the analyzer on a fixture under a different
// import path and requires zero findings, ignoring the fixture's want
// comments — used to prove package allowlists hold.
func runFixtureExpectNone(t *testing.T, a *Analyzer, fixture, importPath string) {
	t.Helper()
	pkg := parseFixture(t, fixture, importPath)
	for _, fd := range runOne(pkg, []*Analyzer{a}) {
		t.Errorf("%s as %s: unexpected finding: %s", filepath.Base(fixture), importPath, fd)
	}
}

// parseFixture loads one fixture file as a standalone package and
// type-checks it against the real module, so fixtures exercise the same
// type-aware paths the CLI runs. Deliberately broken fixtures still load:
// type errors are collected, not fatal.
func parseFixture(t *testing.T, fixture, importPath string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, fixture, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", fixture, err)
	}
	pkg := &Package{
		Dir:        filepath.Dir(fixture),
		ImportPath: importPath,
		Fset:       fset,
		Files:      []*ast.File{f},
	}
	root, module, err := ModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	pkg.typeCheck(newTypeChecker(root, module))
	return pkg
}

// runOne executes the analyzers over one package as a single-package
// program: suppressed findings are dropped, and malformed ignore directives
// are reported under the "directive" check.
func runOne(pkg *Package, analyzers []*Analyzer) []Finding {
	return RunProgram(NewProgram([]*Package{pkg}), pkg, analyzers)
}

// packageByPath returns the program package with the import path, or nil.
func (p *Program) packageByPath(path string) *Package {
	for _, pkg := range p.pkgs {
		if pkg.ImportPath == path {
			return pkg
		}
	}
	return nil
}

// fixturePath resolves a file under testdata/.
func fixturePath(elem ...string) string {
	return filepath.Join(append([]string{"testdata"}, elem...)...)
}
