package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// typeChecker resolves imports for go/types without the external go/packages
// machinery, keeping the module dependency-free: import paths inside this
// module are parsed and type-checked from source (non-test files only, so an
// external _test package can import its package under test without a cycle),
// and everything else — the standard library — is delegated to the
// compiler's export data via go/importer. Packages are cached by import
// path, so diamond-shaped import graphs are checked once.
type typeChecker struct {
	root   string // module root directory
	module string // module path from go.mod
	fset   *token.FileSet
	std    types.ImporterFrom
	cache  map[string]*types.Package
}

func newTypeChecker(root, module string) *typeChecker {
	return &typeChecker{
		root:   root,
		module: module,
		fset:   token.NewFileSet(),
		std:    importer.Default().(types.ImporterFrom),
		cache:  make(map[string]*types.Package),
	}
}

// Import implements types.Importer.
func (tc *typeChecker) Import(path string) (*types.Package, error) {
	return tc.ImportFrom(path, tc.root, 0)
}

// ImportFrom implements types.ImporterFrom.
func (tc *typeChecker) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if pkg, ok := tc.cache[path]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("lint: import cycle through %q", path)
		}
		return pkg, nil
	}
	if path != tc.module && !strings.HasPrefix(path, tc.module+"/") {
		return tc.std.ImportFrom(path, dir, mode)
	}
	tc.cache[path] = nil // cycle guard while this package checks

	rel := strings.TrimPrefix(strings.TrimPrefix(path, tc.module), "/")
	pkgDir := filepath.Join(tc.root, filepath.FromSlash(rel))
	files, err := tc.parseNonTestFiles(pkgDir)
	if err != nil {
		delete(tc.cache, path)
		return nil, err
	}
	if len(files) == 0 {
		delete(tc.cache, path)
		return nil, fmt.Errorf("lint: no Go files in %s for import %q", pkgDir, path)
	}
	// Dependency diagnostics are swallowed here: if the imported package has
	// its own problems they resurface when that package is linted directly,
	// and a partially-checked dependency is still usable for resolution.
	conf := types.Config{Importer: tc, Error: func(error) {}}
	pkg, checkErr := conf.Check(path, tc.fset, files, nil)
	if pkg == nil {
		delete(tc.cache, path)
		return nil, checkErr
	}
	tc.cache[path] = pkg
	return pkg, nil
}

// parseNonTestFiles parses every non-test .go file in dir under the
// checker's private FileSet.
func (tc *typeChecker) parseNonTestFiles(dir string) ([]*ast.File, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(tc.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// typeCheck populates pkg.Types, pkg.TypesInfo, and pkg.TypeErrors by
// running go/types over the package's parsed files, resolving module-local
// imports from source through tc. Load calls it for every package; tests
// that assemble fixture packages by hand call it directly.
//
// Files are grouped by package clause: in-package test files (package foo
// in foo_test.go) check together with the primary group, an external test
// package (package foo_test) checks as its own unit importing the primary
// from source. All groups record into the one shared TypesInfo, so
// analyzers never care which group a node came from. Type errors are
// collected, not fatal — analyzers see partial info and degrade to
// syntactic behavior where it is missing.
func (pkg *Package) typeCheck(tc *typeChecker) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg.TypesInfo = info

	// Group files by package clause, primary group first.
	primary := ""
	for _, f := range pkg.Files {
		if name := f.Name.Name; !strings.HasSuffix(name, "_test") {
			primary = name
			break
		}
	}
	groups := make(map[string][]*ast.File)
	var order []string
	for _, f := range pkg.Files {
		name := f.Name.Name
		if _, ok := groups[name]; !ok {
			order = append(order, name)
		}
		groups[name] = append(groups[name], f)
	}
	sort.Slice(order, func(i, j int) bool {
		if (order[i] == primary) != (order[j] == primary) {
			return order[i] == primary
		}
		return order[i] < order[j]
	})

	for _, name := range order {
		conf := types.Config{
			Importer: tc,
			Error: func(err error) {
				pkg.TypeErrors = append(pkg.TypeErrors, err)
			},
		}
		path := pkg.ImportPath
		if strings.HasSuffix(name, "_test") && name != primary {
			path += "_test"
		}
		tpkg, _ := conf.Check(path, pkg.Fset, groups[name], info)
		if name == primary && tpkg != nil {
			pkg.Types = tpkg
		}
	}
}

// isRankPtr reports whether t is *cluster.Rank — the parameter type that
// marks a function as one rank's body in a distributed Run.
func isRankPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Rank" && obj.Pkg() != nil &&
		obj.Pkg().Path() == "extdict/internal/cluster"
}

// rankParams returns the objects of every *cluster.Rank parameter of the
// function type, resolved through info. Nil when none (or no type info).
func rankParams(ft *ast.FuncType, info *types.Info) []types.Object {
	if info == nil || ft.Params == nil {
		return nil
	}
	var out []types.Object
	for _, field := range ft.Params.List {
		t := info.TypeOf(field.Type)
		if t == nil || !isRankPtr(t) {
			continue
		}
		for _, name := range field.Names {
			if obj := info.Defs[name]; obj != nil {
				out = append(out, obj)
			}
		}
	}
	return out
}
