package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strconv"
)

// TraceOp is one collective in a static schedule: the operation, its root,
// and its vector length as a symbolic dimension expression ("m", "l",
// "len(batch)"). Allreduce is expanded to its implementation — Reduce to
// root 0 followed by Broadcast from root 0 — so a static trace compares
// positionally against the runtime trace recorded by
// cluster.Comm.EnableTrace.
type TraceOp struct {
	Op   string `json:"op"`
	Root string `json:"root"`
	Size string `json:"size"`
}

// OpTrace is the static collective schedule of one rank function, named
// "Type.Method" for declared functions and "Type.Method#i" for the i-th
// rank-taking function literal inside a method (the bodies passed to
// comm.Run).
type OpTrace struct {
	Func string    `json:"func"`
	Ops  []TraceOp `json:"ops"`
}

// tracedOp carries the source position alongside the emitted op so the
// analyzer can report unresolved sizes at the offending argument.
type tracedOp struct {
	TraceOp
	pos token.Pos
}

// Schedule verifies that every rank function in internal/dist and
// internal/solver admits a rank-invariant static collective trace — the
// whole-program guarantee behind Algorithm 2's lock-step schedule. It
// abstract-interprets each rank body into an ordered list of collectives
// with symbolic roots and vector lengths (resolved through operator
// constructors: a scratch buffer allocated with make([]float64, a.Rows) in
// the constructor traces as the dimension "m"), inlining calls to
// same-package rank helpers. It reports when
//
//   - a collective's schedule position, root, or vector length depends on
//     the rank (the trace differs across ranks — the runtime would abort), or
//   - a vector length cannot be resolved to a symbolic dimension (the
//     schedule cannot be verified against the paper's communication model).
//
// The emitted traces (cmd/extdict-lint -trace) are cross-checked in tests
// against the runtime traces recorded by cluster.Comm.EnableTrace.
var Schedule = &Analyzer{
	Name: "schedule",
	Doc: "every *cluster.Rank operator must admit a rank-invariant static " +
		"collective trace with symbolically resolved vector lengths, " +
		"verified against the runtime-recorded schedule",
	SkipTests: true,
	Run: func(p *Pass) {
		if !inAnyPkg(p.Pkg.ImportPath, "extdict/internal/dist", "extdict/internal/solver") {
			return
		}
		if p.Pkg.TypesInfo == nil {
			return
		}
		shapes := buildShapes(p.Pkg)
		eachRankFunc(p.Pkg, func(name string, ft *ast.FuncType, body *ast.BlockStmt) {
			if !rankInvariant(p, ft, body) {
				p.Reportf(body.Pos(),
					"%s has no rank-invariant static collective trace: a collective's position, root, or vector length depends on the rank (see collective findings)", name)
				return
			}
			ops := traceBody(p.Prog, p.Pkg, shapes, body, nil)
			seen := make(map[token.Pos]bool) // Allreduce expands to two ops at one site
			for _, op := range ops {
				if op.Size == "?" && !seen[op.pos] {
					seen[op.pos] = true
					p.Reportf(op.pos,
						"cannot resolve a symbolic vector length for this collective; the static schedule cannot be checked against the communication model — size buffers through the operator constructor")
				}
			}
		})
	},
}

// eachRankFunc visits every rank-taking function in the package's non-test
// files: declared functions under their "Type.Method" name and rank-taking
// literals inside each declaration as "Type.Method#i".
func eachRankFunc(pkg *Package, fn func(name string, ft *ast.FuncType, body *ast.BlockStmt)) {
	info := pkg.TypesInfo
	for _, f := range pkg.Files {
		if isTestFile(pkg, f) {
			continue
		}
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Body == nil {
				continue
			}
			if len(rankParams(decl.Type, info)) > 0 {
				fn(declName(decl), decl.Type, decl.Body)
				continue
			}
			i := 0
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				if len(rankParams(lit.Type, info)) == 0 {
					return true
				}
				i++
				fn(declName(decl)+"#"+strconv.Itoa(i), lit.Type, lit.Body)
				return false // a lit nested in a rank lit traces on its own
			})
		}
	}
}

// rankInvariant runs the shared SPMD walker and reports whether every
// collective effect is independent of the rank.
func rankInvariant(p *Pass, ft *ast.FuncType, body *ast.BlockStmt) bool {
	s := newSpmd(p.Pkg, func(call *ast.CallExpr) (*funcNode, *summary) {
		return p.Prog.summaryFor(p.Pkg, call)
	})
	s.analyze(ft, body)
	for _, e := range s.effects {
		if e.cond.inherent || e.exit.inherent || e.root.inherent || e.length.inherent {
			return false
		}
	}
	return true
}

// traceBody walks one rank body in source order and emits its collective
// schedule, inlining calls to same-package rank-taking declared functions
// (ExDGram.Apply's literal delegates to applyCase1/applyCase2; the trace is
// the helper's). visiting guards recursion.
func traceBody(prog *Program, pkg *Package, shapes *shapeTable, body *ast.BlockStmt, visiting map[string]bool) []tracedOp {
	st := newSymState(pkg, shapes)
	st.envFixpoint(body)
	var ops []tracedOp
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name := st.rankMethodName(call); collectiveNames[name] {
			ops = append(ops, st.collectiveOps(name, call)...)
			return true
		}
		// Inline a same-package rank helper's trace.
		if prog == nil {
			return true
		}
		callee := prog.graph.calleeOf(pkg, call)
		if callee == nil || callee.pkg != pkg || len(rankParams(callee.decl.Type, pkg.TypesInfo)) == 0 {
			return true
		}
		if visiting[callee.id] {
			return true // recursion: trace is not statically bounded here
		}
		next := map[string]bool{callee.id: true}
		for id := range visiting {
			next[id] = true
		}
		ops = append(ops, traceBody(prog, pkg, shapes, callee.decl.Body, next)...)
		return true
	})
	return ops
}

// Traces returns the static collective schedule of every rank function in
// the package, in the order and with the sizes the runtime trace records —
// the artifact behind cmd/extdict-lint -trace and the golden cross-check
// test. Functions without a rank-invariant schedule (flagged by the
// schedule analyzer) and functions with no collectives are omitted. Only
// internal/dist and internal/solver are traced.
func Traces(prog *Program, pkg *Package) []OpTrace {
	if !inAnyPkg(pkg.ImportPath, "extdict/internal/dist", "extdict/internal/solver") {
		return nil
	}
	if pkg.TypesInfo == nil {
		return nil
	}
	shapes := buildShapes(pkg)
	var out []OpTrace
	p := &Pass{Analyzer: Schedule, Pkg: pkg, Prog: prog}
	eachRankFunc(pkg, func(name string, ft *ast.FuncType, body *ast.BlockStmt) {
		if !rankInvariant(p, ft, body) {
			return
		}
		traced := traceBody(prog, pkg, shapes, body, nil)
		if len(traced) == 0 {
			return
		}
		ops := make([]TraceOp, len(traced))
		for i, op := range traced {
			ops[i] = op.TraceOp
		}
		out = append(out, OpTrace{Func: name, Ops: ops})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Func < out[j].Func })
	return out
}

// symState resolves canonical symbolic values and slice lengths inside one
// rank body, against the package's constructor shape table.
type symState struct {
	pkg    *Package
	info   *types.Info
	shapes *shapeTable

	val  map[types.Object]symExpr // canonical value of locals
	slen map[types.Object]symExpr // canonical slice length of locals
}

func newSymState(pkg *Package, shapes *shapeTable) *symState {
	return &symState{
		pkg:    pkg,
		info:   pkg.TypesInfo,
		shapes: shapes,
		val:    make(map[types.Object]symExpr),
		slen:   make(map[types.Object]symExpr),
	}
}

// envFixpoint records the canonical value and length of every local
// assignment, iterating so definition order does not matter.
func (st *symState) envFixpoint(body *ast.BlockStmt) {
	for iter := 0; iter < 4; iter++ {
		changed := false
		ast.Inspect(body, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.AssignStmt:
				if len(s.Lhs) != len(s.Rhs) {
					return true
				}
				for i, lhs := range s.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					obj := st.info.Defs[id]
					if obj == nil {
						obj = st.info.Uses[id]
					}
					if obj == nil {
						continue
					}
					if v := st.symVal(s.Rhs[i]); !isUnknown(v) && st.val[obj] == nil {
						st.val[obj] = v
						changed = true
					}
					if l := st.symLen(s.Rhs[i]); !isUnknown(l) && st.slen[obj] == nil {
						st.slen[obj] = l
						changed = true
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}
}

func isUnknown(e symExpr) bool {
	_, ok := e.(symUnknown)
	return ok
}

// rankMethodName is the symState copy of the rank-method test.
func (st *symState) rankMethodName(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	if t := st.info.TypeOf(sel.X); t != nil && isRankPtr(t) {
		return sel.Sel.Name
	}
	return ""
}

// collectiveOps renders one collective call into trace ops, expanding
// Allreduce to Reduce+Broadcast from root 0 exactly as the runtime does.
func (st *symState) collectiveOps(name string, call *ast.CallExpr) []tracedOp {
	size := "0"
	pos := call.Pos()
	if name != "Barrier" && len(call.Args) >= 1 {
		size = st.symLen(call.Args[0]).render()
		pos = call.Args[0].Pos()
	}
	switch name {
	case "Allreduce":
		return []tracedOp{
			{TraceOp{Op: "Reduce", Root: "0", Size: size}, pos},
			{TraceOp{Op: "Broadcast", Root: "0", Size: size}, pos},
		}
	case "Reduce", "Broadcast":
		root := "?"
		if len(call.Args) == 2 {
			root = st.symVal(call.Args[1]).render()
		}
		return []tracedOp{{TraceOp{Op: name, Root: root, Size: size}, pos}}
	case "Barrier":
		return []tracedOp{{TraceOp{Op: "Barrier", Root: "0", Size: "0"}, call.Pos()}}
	}
	return nil
}

// canonRef resolves a field-reference chain rooted at an operator-typed
// value — g.m, g.scratch[r.ID], g.ranges[r.ID][0], g.scratch[r.ID].vl1 —
// into the operator type name and the canonical shape-table key.
func (st *symState) canonRef(e ast.Expr) (typeName, key string, ok bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.SelectorExpr:
		// Field of an indexed slot first (g.scratch[r.ID].vl1), so a named
		// slot struct does not shadow the operator-rooted chain.
		if tn, base, ok := st.canonRef(e.X); ok {
			return tn, base + "." + e.Sel.Name, true
		}
		// Direct field of the operator value (g.m): the root of every chain.
		if id, isIdent := e.X.(*ast.Ident); isIdent {
			t := st.info.TypeOf(id)
			if tn := namedTypeName(t); tn != "" && !isRankPtr(t) {
				if _, isStruct := underlyingStruct(t); isStruct {
					return tn, e.Sel.Name, true
				}
			}
		}
	case *ast.IndexExpr:
		if tn, base, ok := st.canonRef(e.X); ok {
			if lit, isLit := e.Index.(*ast.BasicLit); isLit {
				return tn, base + "[" + lit.Value + "]", true
			}
			return tn, base + "[]", true
		}
	}
	return "", "", false
}

// underlyingStruct unwraps pointers to a struct underlying type.
func underlyingStruct(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	s, ok := t.Underlying().(*types.Struct)
	return s, ok
}

// kernelDst recognizes the matrix-vector kernels' destination-return
// contract — MulVec/MulVecT/ParMulVec/ParMulVecT(x, dst, ...) return dst —
// and yields the destination expression. The destination is always the
// second argument.
func kernelDst(call *ast.CallExpr) (ast.Expr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	switch sel.Sel.Name {
	case "MulVec", "MulVecT", "ParMulVec", "ParMulVecT":
		if len(call.Args) >= 2 {
			return call.Args[1], true
		}
	}
	return nil, false
}

// symLen resolves the symbolic length of a slice-valued expression.
func (st *symState) symLen(e ast.Expr) symExpr {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := st.info.Uses[e]; obj != nil {
			if l, ok := st.slen[obj]; ok {
				return l
			}
			// An unresolved slice local or captured parameter: its length is
			// itself the symbol ("len(batch)").
			if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
				return symVar("len(" + e.Name + ")")
			}
		}
	case *ast.SelectorExpr, *ast.IndexExpr:
		if tn, key, ok := st.canonRef(e); ok {
			if lens := st.shapes.lens[tn]; lens != nil {
				if l, ok := lens[key]; ok {
					return l
				}
			}
		}
	case *ast.SliceExpr:
		if e.High != nil {
			hi := st.symVal(e.High)
			if isUnknown(hi) {
				return symUnknown{}
			}
			if e.Low == nil {
				return hi
			}
			lo := st.symVal(e.Low)
			if isUnknown(lo) {
				return symUnknown{}
			}
			if c, ok := lo.(symConst); ok && c == 0 {
				return hi
			}
			return symSub{hi, lo}
		}
		if e.Low == nil {
			return st.symLen(e.X)
		}
	case *ast.CallExpr:
		if dst, ok := kernelDst(e); ok {
			return st.symLen(dst)
		}
		if id, ok := e.Fun.(*ast.Ident); ok && isBuiltinObj(st.info.Uses[id]) {
			switch id.Name {
			case "make":
				if len(e.Args) >= 2 {
					return st.symVal(e.Args[1])
				}
			case "append":
				if len(e.Args) > 0 {
					return st.symLen(e.Args[0])
				}
			}
		}
	}
	return symUnknown{}
}

// symVal resolves the canonical symbolic value of an integer expression.
func (st *symState) symVal(e ast.Expr) symExpr {
	switch e := ast.Unparen(e).(type) {
	case *ast.BasicLit:
		if e.Kind == token.INT {
			if n, err := strconv.ParseInt(e.Value, 0, 64); err == nil {
				return symConst(n)
			}
		}
	case *ast.Ident:
		if obj := st.info.Uses[e]; obj != nil {
			if v, ok := st.val[obj]; ok {
				return v
			}
			return symVar(e.Name)
		}
	case *ast.SelectorExpr:
		if tn, key, ok := st.canonRef(e); ok {
			_ = tn
			return symVar(key)
		}
	case *ast.IndexExpr:
		if _, key, ok := st.canonRef(e); ok {
			return symVar(key)
		}
	case *ast.BinaryExpr:
		a, b := st.symVal(e.X), st.symVal(e.Y)
		if isUnknown(a) || isUnknown(b) {
			return symUnknown{}
		}
		switch e.Op {
		case token.ADD:
			return symAdd{a, b}
		case token.SUB:
			return symSub{a, b}
		case token.MUL:
			return symMul{a, b}
		}
	case *ast.CallExpr:
		if tv, ok := st.info.Types[e.Fun]; ok && tv.IsType() && len(e.Args) == 1 {
			return st.symVal(e.Args[0]) // conversion: int64(x)
		}
		if id, ok := e.Fun.(*ast.Ident); ok && isBuiltinObj(st.info.Uses[id]) {
			if id.Name == "len" && len(e.Args) == 1 {
				return st.symLen(e.Args[0])
			}
		}
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "NNZ" && len(e.Args) == 0 {
			// Sparse population count: canonical over the receiver chain.
			if _, key, ok := st.canonRef(sel.X); ok {
				return symVar("NNZ(" + key + ")")
			}
			if id, ok := sel.X.(*ast.Ident); ok {
				if obj := st.info.Uses[id]; obj != nil {
					if v, isVar := st.val[obj].(symVar); isVar {
						return symVar("NNZ(" + string(v) + ")")
					}
				}
				return symVar("NNZ(" + id.Name + ")")
			}
		}
	}
	return symUnknown{}
}
