package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// funcNode is one function in the whole-program call graph: a declared
// function or method with a body, addressed by a package-qualified id that
// is stable across the per-package type-check universes (each Package is
// checked into its own *types.Package, so *types.Func identity does not
// survive a package boundary — string ids do).
type funcNode struct {
	id   string        // see funcIDOf: "pkg.Func" or "pkg.(Type).Method"
	name string        // display name: "Func" or "Type.Method"
	pkg  *Package      // the package the body lives in
	decl *ast.FuncDecl // the declaration (never nil; literals are not nodes)

	// params are the parameter objects in call-site order — the receiver,
	// when the node is a method, is parameter 0.
	params []types.Object
}

// callGraph indexes every declared function and method of a program by its
// package-qualified id.
type callGraph struct {
	nodes map[string]*funcNode
}

// funcIDOf renders the stable id of a declared function or method:
// "pkgpath.Name" for functions, "pkgpath.(Type).Name" for methods (pointer
// and value receivers share an id — a program declares at most one of each
// name). Returns "" for objects without a package (builtins).
func funcIDOf(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return fmt.Sprintf("%s.(%s).%s", fn.Pkg().Path(), named.Obj().Name(), fn.Name())
		}
		return "" // interface method or unnamed receiver: not a graph node
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// buildCallGraph collects every declared function and method with a body
// across the program's packages. Test-file declarations are included: the
// collective invariants hold in test rank bodies too.
func buildCallGraph(pkgs []*Package) *callGraph {
	cg := &callGraph{nodes: make(map[string]*funcNode)}
	for _, pkg := range pkgs {
		info := pkg.TypesInfo
		if info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				decl, ok := d.(*ast.FuncDecl)
				if !ok || decl.Body == nil {
					continue
				}
				fn, ok := info.Defs[decl.Name].(*types.Func)
				if !ok {
					continue
				}
				id := funcIDOf(fn)
				if id == "" {
					continue
				}
				node := &funcNode{id: id, name: declName(decl), pkg: pkg, decl: decl}
				node.params = declParams(decl, info)
				cg.nodes[id] = node
			}
		}
	}
	return cg
}

// declName renders the display name of a declaration: "Type.Method" with
// the receiver's pointer marker dropped, or the bare function name.
func declName(decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return decl.Name.Name
	}
	t := decl.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + decl.Name.Name
	}
	return decl.Name.Name
}

// declParams resolves the declaration's parameter objects in call-site
// order, receiver first. A blank or unnamed parameter contributes nil, so
// indices stay aligned with call-site arguments.
func declParams(decl *ast.FuncDecl, info *types.Info) []types.Object {
	var out []types.Object
	appendField := func(field *ast.Field) {
		if len(field.Names) == 0 {
			out = append(out, nil)
			return
		}
		for _, name := range field.Names {
			out = append(out, info.Defs[name]) // nil for _
		}
	}
	if decl.Recv != nil {
		for _, field := range decl.Recv.List {
			appendField(field)
		}
	}
	if decl.Type.Params != nil {
		for _, field := range decl.Type.Params.List {
			appendField(field)
		}
	}
	return out
}

// calleeOf resolves a call expression to its target node, or nil when the
// callee is a builtin, a conversion, a function value, an interface method,
// or a function outside the program (standard library).
func (cg *callGraph) calleeOf(pkg *Package, call *ast.CallExpr) *funcNode {
	info := pkg.TypesInfo
	if info == nil {
		return nil
	}
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	id := funcIDOf(fn)
	if id == "" {
		return nil
	}
	return cg.nodes[id]
}

// callArgs returns the call's effective argument expressions in parameter
// order: for a method call through a selector, the receiver expression is
// prepended so indices line up with funcNode.params.
func callArgs(pkg *Package, call *ast.CallExpr, callee *funcNode) []ast.Expr {
	args := call.Args
	if callee.decl.Recv == nil {
		return args
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		// A package-qualified call (pkg.Func) has no receiver; a method
		// expression (Type.Method) is not resolved here. Only genuine
		// method calls through a value reach a callee with a receiver.
		out := make([]ast.Expr, 0, len(args)+1)
		out = append(out, sel.X)
		out = append(out, args...)
		return out
	}
	return args
}

// sortedNodeIDs returns every node id in deterministic order, for tests and
// stable iteration.
func (cg *callGraph) sortedNodeIDs() []string {
	ids := make([]string, 0, len(cg.nodes))
	for id := range cg.nodes {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// nodeByName finds a node by display name inside one import path — a test
// convenience ("ExDGram.applyCase1" in "extdict/internal/dist").
func (cg *callGraph) nodeByName(importPath, name string) *funcNode {
	for _, n := range cg.nodes {
		if n.name == name && n.pkg.ImportPath == importPath {
			return n
		}
	}
	return nil
}

// Program is the whole-module analysis unit: the packages under analysis,
// their call graph, and the per-function summaries interprocedural
// analyzers consult. Build one with NewProgram and hand it to RunProgram.
type Program struct {
	pkgs      []*Package
	graph     *callGraph
	summaries map[string]*summary

	// lockEdges memoizes the whole-module lock-order graph (conc.go); the
	// lint engine runs analyzers sequentially, so a plain flag suffices.
	lockEdges      []lockEdge
	lockEdgesBuilt bool
}

// NewProgram builds the call graph and function summaries for the given
// packages. Analyzers run through RunProgram see every package in the
// program, so a collective hidden behind a helper in another package is
// visible; Run (single-package) degrades to within-package resolution.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{pkgs: pkgs, graph: buildCallGraph(pkgs)}
	p.summaries = computeSummaries(p.graph)
	return p
}

// summaryFor returns the summary of the call's resolved target, or nil.
func (p *Program) summaryFor(pkg *Package, call *ast.CallExpr) (*funcNode, *summary) {
	node := p.graph.calleeOf(pkg, call)
	if node == nil {
		return nil, nil
	}
	return node, p.summaries[node.id]
}

// isTestFile reports whether the position's file is a _test.go file.
func isTestFile(pkg *Package, n ast.Node) bool {
	return strings.HasSuffix(pkg.Fset.Position(n.Pos()).Filename, "_test.go")
}
