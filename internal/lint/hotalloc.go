package lint

import (
	"go/ast"
	"go/types"
)

// nilDstKernels are the mat kernels whose final destination argument, when
// nil, makes the kernel allocate its result. In a hot region the caller must
// pass a scratch buffer instead.
var nilDstKernels = map[string]bool{
	"MulVec": true, "MulVecT": true, "ParMulVec": true, "ParMulVecT": true,
}

// hotCallNames mark a loop body as per-iteration hot: applying an operator,
// reporting flops or bytes, or running a collective all mean the loop is the
// algorithm's inner iteration, where the paper's cost model assumes
// allocation-free steady state.
var hotCallNames = map[string]bool{
	"Apply": true, "AddFlops": true, "AddBytes": true, "AddResident": true,
	"Allreduce": true, "Reduce": true, "Broadcast": true, "Barrier": true,
}

// ompHotCallNames mark internal/omp's hot loops: the Batch-OMP selection
// loop calls the coder and the level-1 kernels once per atom, and the
// column-coding driver calls Encode once per signal. There are no ranks or
// collectives in omp, so the batch kernels themselves are the signal.
var ompHotCallNames = map[string]bool{
	"Encode": true, "gramRow": true, "Axpy": true, "AxpyRowsTo": true, "Dot": true,
}

// serveHotCallNames mark internal/serve's hot loop: the batcher's panel
// loop runs once per coalesced batch of live requests, so a loop that codes
// a panel is the serving layer's steady state and must reuse its request
// and column scratch instead of allocating per batch.
var serveHotCallNames = map[string]bool{
	"Encode": true, "EncodePanel": true, "encodeBatch": true,
}

// HotAlloc flags per-iteration allocation in the hot regions of
// internal/dist, internal/solver, and internal/omp. A hot region is either
//
//   - the body of a function taking a *cluster.Rank (it runs once per rank
//     per operator application — the innermost distributed step), or
//   - the body of a for/range loop that directly contains a hot call
//     (.Apply, .AddFlops, .AddBytes, or a collective in dist/solver; the
//     batch-coding kernels .Encode, .gramRow, .Axpy, .AxpyRowsTo, .Dot in
//     omp; the panel-coding calls .Encode, .EncodePanel, .encodeBatch in
//     serve) —
//     "directly" meaning not through a nested loop's body, so an outer
//     driver loop whose iteration work happens only inside inner loops is
//     setup, not hot.
//
// Inside a hot region it reports make/new, append, kernel calls with a nil
// destination (they allocate their result), and — when type information is
// available — implicit interface boxing of non-constant, non-pointer
// concrete values. Allocations before the loop (setup) are never flagged:
// the fix for every finding is to hoist the buffer there, or into a scratch
// field on the owning struct. Function literals inside a hot region are not
// descended into — they are analyzed on their own if they take a rank.
var HotAlloc = &Analyzer{
	Name:      "hotalloc",
	SkipTests: true,
	Doc: "forbid per-iteration allocation (make/new/append, nil-destination " +
		"kernels, interface boxing) in internal/dist, internal/solver, " +
		"internal/omp, and internal/serve hot regions; hoist buffers into " +
		"setup or struct scratch fields",
	Run: func(p *Pass) {
		hot := hotCallNames
		switch {
		case inAnyPkg(p.Pkg.ImportPath, "extdict/internal/dist", "extdict/internal/solver"):
		case inAnyPkg(p.Pkg.ImportPath, "extdict/internal/omp"):
			hot = ompHotCallNames
		case inAnyPkg(p.Pkg.ImportPath, "extdict/internal/serve"):
			hot = serveHotCallNames
		default:
			return
		}
		p.EachFile(func(f *ast.File) {
			clusterName, _ := ImportName(f, "extdict/internal/cluster")
			h := &hotScan{p: p, info: p.Pkg.TypesInfo, clusterName: clusterName, hot: hot}
			for _, decl := range f.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
					h.walkFunc(fd.Type, fd.Body)
				}
			}
		})
	},
}

type hotScan struct {
	p           *Pass
	info        *types.Info
	clusterName string
	hot         map[string]bool // calls that mark a loop body as hot
}

// walkFunc classifies one function: a rank function is hot in its entirety;
// otherwise its loops are inspected for direct hot calls.
func (h *hotScan) walkFunc(ft *ast.FuncType, body *ast.BlockStmt) {
	if takesRank(ft, h.info, h.clusterName) {
		h.reportAllocs(body)
		return
	}
	h.findHotLoops(body)
}

// findHotLoops descends looking for hot loops and nested function literals.
func (h *hotScan) findHotLoops(n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			h.walkFunc(n.Type, n.Body)
			return false
		case *ast.ForStmt:
			if h.directlyHot(n.Body) {
				h.reportAllocs(n.Body)
				return false // nested loops already covered by reportAllocs
			}
		case *ast.RangeStmt:
			if h.directlyHot(n.Body) {
				h.reportAllocs(n.Body)
				return false
			}
		}
		return true
	})
}

// directlyHot reports whether the loop body contains a hot call outside any
// nested loop or function literal.
func (h *hotScan) directlyHot(body *ast.BlockStmt) bool {
	hot := false
	for _, st := range body.List {
		ast.Inspect(st, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok && h.hot[sel.Sel.Name] {
					hot = true
				}
			}
			return !hot
		})
		if hot {
			return true
		}
	}
	return false
}

// reportAllocs flags every per-iteration allocation in the hot region.
func (h *hotScan) reportAllocs(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if h.info != nil && !isBuiltinObj(h.info.Uses[fun]) {
				break
			}
			switch fun.Name {
			case "make", "new":
				h.p.Reportf(call.Pos(),
					"%s allocates on every iteration of a hot region; hoist the buffer into setup or a struct scratch field", fun.Name)
			case "append":
				h.p.Reportf(call.Pos(),
					"append may reallocate on every iteration of a hot region; preallocate the full-size buffer in setup and index into it")
			}
		case *ast.SelectorExpr:
			if nilDstKernels[fun.Sel.Name] && len(call.Args) >= 2 {
				if id, ok := call.Args[len(call.Args)-1].(*ast.Ident); ok && id.Name == "nil" {
					h.p.Reportf(call.Pos(),
						"%s with a nil destination allocates its result on every iteration of a hot region; pass a scratch buffer", fun.Sel.Name)
				}
			}
		}
		h.reportBoxing(call)
		return true
	})
}

// reportBoxing flags call arguments that implicitly box a concrete value
// into an interface parameter — a heap allocation per iteration. Pointers
// and constants do not allocate; interfaces passed through stay as they are.
func (h *hotScan) reportBoxing(call *ast.CallExpr) {
	if h.info == nil {
		return
	}
	sigType := h.info.TypeOf(call.Fun)
	if sigType == nil {
		return
	}
	sig, ok := sigType.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			if call.Ellipsis.IsValid() {
				continue // s... passes the slice through, no boxing
			}
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			param = last.(*types.Slice).Elem()
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(param) {
			continue
		}
		tv, found := h.info.Types[arg]
		if !found || tv.Value != nil || tv.Type == nil {
			continue // untyped constants never reach the heap
		}
		at := tv.Type
		if types.IsInterface(at) {
			continue
		}
		if _, isPtr := at.Underlying().(*types.Pointer); isPtr {
			continue
		}
		if at == types.Typ[types.UntypedNil] {
			continue
		}
		h.p.Reportf(arg.Pos(),
			"passing %s boxes it into an interface, allocating on every iteration of a hot region; pass a pointer or hoist the call", at.String())
	}
}
