package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CostModel statically pins the flop accounting of internal/dist and
// internal/solver to the code: it derives a symbolic FLOP expression for
// the region of a rank body preceding each r.AddFlops call — kernel calls
// through their contracts (Dense MulVec/MulVecT/ParMulVec = 2·rows·cols,
// CSC MulVec/MulVecT = 2·NNZ), loop nests as trip count × inner float
// operations — and reports when the AddFlops argument cannot equal the
// derived expression. Dimensions resolve through operator constructors the
// same way schedule's vector lengths do, so the comparison happens in the
// paper's own variables: applyCase1's rank-0 block derives 4·M·L against
// the claimed 2*2*int64(g.m)*int64(g.l), which is Eq. 2; the per-rank
// 4·nnz_i terms are Eq. 3's sparse half. An if-block containing its own
// AddFlops is checked as an independent guarded region ("r.ID == 0"), so
// asymmetric accounting stays checkable.
//
// The model counts float64 arithmetic only (multiplies, adds, subtracts,
// divides); integer index math, comparisons, and calls without a kernel
// contract derive zero. A claim that folds data-dependent work (a branch
// that skips rows) will mismatch — that is a feature: the paper's cost
// model (Eqs. 2-4) is an upper-bound multiply-add count, and deviations
// must be argued with a //lint:ignore directive, not silently absorbed.
var CostModel = &Analyzer{
	Name: "costmodel",
	Doc: "every r.AddFlops argument must symbolically equal the FLOP " +
		"expression derived from the preceding kernel calls and loop " +
		"nests, pinning the code to the paper's cost model (Eqs. 2-4)",
	SkipTests: true,
	Run: func(p *Pass) {
		if !inAnyPkg(p.Pkg.ImportPath, "extdict/internal/dist", "extdict/internal/solver") {
			return
		}
		if p.Pkg.TypesInfo == nil {
			return
		}
		for _, fc := range deriveCosts(p.Pkg) {
			subst := fc.subst
			for _, term := range fc.terms {
				switch {
				case term.unsupported:
					p.Reportf(term.pos,
						"AddFlops inside a loop cannot be checked against the static cost model; hoist the accounting out of the loop")
				case term.claim != nil:
					pd, okD := normalize(term.derived, subst)
					pc, okC := normalize(term.claim, subst)
					if !okD || !okC {
						p.Reportf(term.pos,
							"cannot derive a symbolic flop count for the code preceding this AddFlops; restructure so loop bounds and kernel dimensions resolve through the operator constructor")
						continue
					}
					if !equalPoly(pd, pc) {
						p.Reportf(term.pos,
							"AddFlops claims %s but the preceding code computes %s flops%s (cost-model conformance, Eqs. 2-4)",
							pc.render(), pd.render(), guardSuffix(term.guard))
					}
				default:
					// Trailing derived flops with no AddFlops to absorb them.
					p.Reportf(term.pos,
						"flops computed here are not covered by any AddFlops call%s; the cost model under-counts this kernel", guardSuffix(term.guard))
				}
			}
		}
	},
}

func guardSuffix(guard string) string {
	if guard == "" {
		return ""
	}
	return " under " + guard
}

// costTerm is one checkable unit of a rank body: the symbolic flops derived
// for a region, the AddFlops claim that closes it (nil for trailing
// uncovered work), and the guard condition the region runs under.
type costTerm struct {
	guard       string  // canonical condition, "" at top level
	claim       symExpr // parsed AddFlops argument; nil for trailing terms
	derived     symExpr
	pos         token.Pos
	unsupported bool // AddFlops nested in a loop
}

// funcCost is the derived cost structure of one rank function.
type funcCost struct {
	fn    string
	terms []costTerm
	subst map[string]string // dimension aliases of the operator type
}

// deriveCosts derives the symbolic cost terms of every rank function in the
// package — the data behind the costmodel analyzer and the symbolic
// reproduction of the flop-accounting tests.
func deriveCosts(pkg *Package) []funcCost {
	shapes := buildShapes(pkg)
	var out []funcCost
	eachRankFunc(pkg, func(name string, ft *ast.FuncType, body *ast.BlockStmt) {
		opType, _, _ := strings.Cut(name, ".")
		if !strings.Contains(name, ".") {
			opType = ""
		}
		cw := &costWalk{
			st:        newSymState(pkg, shapes),
			shapes:    shapes,
			opType:    opType,
			claimName: "AddFlops",
		}
		cw.stmtCost = cw.stmtFlops
		cw.st.envFixpoint(body)
		terms := cw.region(body.List, "")
		out = append(out, funcCost{fn: name, terms: terms, subst: shapes.substFor(opType)})
	})
	return out
}

// costWalk derives symbolic accounting expressions over one rank body. The
// region machinery is shared between the costmodel and memmodel analyzers:
// claimName is the Rank method that closes an accounted region ("AddFlops"
// or "AddBytes") and stmtCost derives the per-statement quantity that
// method's claims must account for (flops or bytes).
type costWalk struct {
	st        *symState
	shapes    *shapeTable
	opType    string
	claimName string
	stmtCost  func(ast.Stmt) symExpr
}

// region scans a statement list in source order, accumulating the derived
// quantity and closing a term at each claim call. An if-statement containing
// its own claim becomes a nested guarded region; one without folds into the
// parent's accumulator.
func (c *costWalk) region(stmts []ast.Stmt, guard string) []costTerm {
	var terms []costTerm
	acc := symExpr(symConst(0))
	flush := func(claim symExpr, pos token.Pos) {
		terms = append(terms, costTerm{guard: guard, claim: claim, derived: acc, pos: pos})
		acc = symConst(0)
	}
	for _, s := range stmts {
		if call, ok := rankCallStmt(c.st, s, c.claimName); ok {
			flush(c.st.symVal(call.Args[0]), call.Pos())
			continue
		}
		switch s := s.(type) {
		case *ast.IfStmt:
			if containsRankCall(c.st, s.Body, c.claimName) {
				terms = append(terms, c.region(s.Body.List, conjoin(guard, types.ExprString(s.Cond)))...)
				if s.Else != nil {
					if blk, ok := s.Else.(*ast.BlockStmt); ok && containsRankCall(c.st, blk, c.claimName) {
						terms = append(terms, c.region(blk.List, conjoin(guard, "!("+types.ExprString(s.Cond)+")"))...)
						continue
					}
					acc = symAdd{acc, c.stmtCost(s.Else)}
				}
				continue
			}
			acc = symAdd{acc, c.stmtCost(s)}
		case *ast.ForStmt:
			if containsRankCall(c.st, s.Body, c.claimName) {
				terms = append(terms, costTerm{guard: guard, pos: s.Pos(), unsupported: true})
				continue
			}
			acc = symAdd{acc, c.stmtCost(s)}
		case *ast.RangeStmt:
			if containsRankCall(c.st, s.Body, c.claimName) {
				terms = append(terms, costTerm{guard: guard, pos: s.Pos(), unsupported: true})
				continue
			}
			acc = symAdd{acc, c.stmtCost(s)}
		case *ast.BlockStmt:
			// A bare block continues the region.
			sub := c.region(s.List, guard)
			for _, t := range sub {
				if t.claim == nil && !t.unsupported {
					acc = symAdd{acc, t.derived}
				} else {
					terms = append(terms, t)
				}
			}
		default:
			acc = symAdd{acc, c.stmtCost(s)}
		}
	}
	if p, ok := normalize(acc, nil); !ok || len(p) != 0 {
		// Leftover work (or unresolvable work) after the last claim.
		pos := token.NoPos
		if len(stmts) > 0 {
			pos = stmts[len(stmts)-1].Pos()
		}
		terms = append(terms, costTerm{guard: guard, derived: acc, pos: pos})
	}
	return terms
}

// rankCallStmt matches the statement form r.<name>(expr).
func rankCallStmt(st *symState, s ast.Stmt, name string) (*ast.CallExpr, bool) {
	es, ok := s.(*ast.ExprStmt)
	if !ok {
		return nil, false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil, false
	}
	if st.rankMethodName(call) != name {
		return nil, false
	}
	return call, true
}

// containsRankCall reports whether the block calls r.<name> anywhere
// outside nested function literals.
func containsRankCall(st *symState, block *ast.BlockStmt, name string) bool {
	found := false
	ast.Inspect(block, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && st.rankMethodName(call) == name {
			found = true
		}
		return !found
	})
	return found
}

func conjoin(guard, cond string) string {
	if guard == "" {
		return cond
	}
	return guard + " && " + cond
}

// stmtFlops derives the float operations one statement performs.
func (c *costWalk) stmtFlops(s ast.Stmt) symExpr {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return c.exprFlops(s.X)
	case *ast.AssignStmt:
		total := symExpr(symConst(0))
		for _, rhs := range s.Rhs {
			total = symAdd{total, c.exprFlops(rhs)}
		}
		// Compound float assignment is one more operation: s += x*y is a
		// multiply and an add.
		switch s.Tok {
		case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
			if len(s.Lhs) == 1 && isFloatExpr(c.st.info, s.Lhs[0]) {
				total = symAdd{total, symConst(1)}
			}
		}
		return total
	case *ast.IfStmt:
		total := c.exprFlops(s.Cond)
		total = symAdd{total, c.blockFlops(s.Body)}
		if s.Else != nil {
			total = symAdd{total, c.stmtFlops(s.Else)}
		}
		return total
	case *ast.ForStmt:
		trip := c.forTrip(s)
		body := c.blockFlops(s.Body)
		return c.loopFlops(trip, body)
	case *ast.RangeStmt:
		trip := c.st.symLen(s.X)
		body := c.blockFlops(s.Body)
		return c.loopFlops(trip, body)
	case *ast.BlockStmt:
		return c.blockFlops(s)
	case *ast.DeclStmt:
		total := symExpr(symConst(0))
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						total = symAdd{total, c.exprFlops(v)}
					}
				}
			}
		}
		return total
	case *ast.ReturnStmt:
		total := symExpr(symConst(0))
		for _, e := range s.Results {
			total = symAdd{total, c.exprFlops(e)}
		}
		return total
	case *ast.BranchStmt, *ast.IncDecStmt:
		return symConst(0)
	}
	return symConst(0)
}

// loopFlops multiplies a trip count by per-iteration flops, short-circuiting
// zero bodies so an unresolvable trip count over pure index work stays zero.
func (c *costWalk) loopFlops(trip, body symExpr) symExpr {
	if p, ok := normalize(body, nil); ok && len(p) == 0 {
		return symConst(0)
	}
	if isUnknown(trip) {
		return symUnknown{}
	}
	return symMul{trip, body}
}

func (c *costWalk) blockFlops(b *ast.BlockStmt) symExpr {
	total := symExpr(symConst(0))
	for _, s := range b.List {
		total = symAdd{total, c.stmtFlops(s)}
	}
	return total
}

// forTrip resolves the canonical trip count of for i := 0; i < N; i++.
func (c *costWalk) forTrip(s *ast.ForStmt) symExpr {
	init, ok := s.Init.(*ast.AssignStmt)
	if !ok || len(init.Rhs) != 1 {
		return symUnknown{}
	}
	if lit, ok := init.Rhs[0].(*ast.BasicLit); !ok || lit.Value != "0" {
		return symUnknown{}
	}
	cond, ok := s.Cond.(*ast.BinaryExpr)
	if !ok || cond.Op != token.LSS {
		return symUnknown{}
	}
	return c.st.symVal(cond.Y)
}

// exprFlops counts float64 arithmetic in an expression, pricing kernel
// calls through their contracts.
func (c *costWalk) exprFlops(e ast.Expr) symExpr {
	switch e := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		total := symAdd{c.exprFlops(e.X), c.exprFlops(e.Y)}
		switch e.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
			if isFloatExpr(c.st.info, e.X) || isFloatExpr(c.st.info, e.Y) {
				return symAdd{total, symConst(1)}
			}
		}
		return total
	case *ast.CallExpr:
		if k, ok := c.kernelFlops(e); ok {
			total := k
			for _, arg := range e.Args {
				total = symAdd{total, c.exprFlops(arg)}
			}
			return total
		}
		total := symExpr(symConst(0))
		for _, arg := range e.Args {
			total = symAdd{total, c.exprFlops(arg)}
		}
		return total
	case *ast.UnaryExpr:
		return c.exprFlops(e.X)
	case *ast.IndexExpr:
		return symAdd{c.exprFlops(e.X), c.exprFlops(e.Index)}
	case *ast.SelectorExpr:
		return c.exprFlops(e.X)
	case *ast.SliceExpr:
		return c.exprFlops(e.X)
	case *ast.StarExpr:
		return c.exprFlops(e.X)
	}
	return symConst(0)
}

// kernelFlops prices a matrix-vector kernel call: Dense kernels cost
// 2·rows·cols of the receiver (one multiply and one add per matrix entry),
// CSC kernels 2·NNZ of the receiver — the terms of Eqs. 2-4. The unrolled /
// pool-parallel kernels (ParMulVec, ParMulVecT) carry the same contracts as
// their serial forms: register blocking and chunked execution regroup the
// multiply-adds without changing their count. The package-level vector
// kernels mat.Dot and mat.Axpy cost 2·len(x) each (one multiply and one add
// per element).
func (c *costWalk) kernelFlops(call *ast.CallExpr) (symExpr, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, false
	}
	if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
		if pn, ok := c.st.info.Uses[id].(*types.PkgName); ok {
			if pn.Imported().Path() == "extdict/internal/mat" {
				switch sel.Sel.Name {
				case "Dot":
					if len(call.Args) == 2 {
						return c.lenFlops(call.Args[0]), true
					}
				case "Axpy":
					if len(call.Args) == 3 {
						return c.lenFlops(call.Args[1]), true
					}
				}
			}
			return nil, false
		}
	}
	switch sel.Sel.Name {
	case "MulVec", "MulVecT", "ParMulVec", "ParMulVecT":
	default:
		return nil, false
	}
	recvType := c.st.info.TypeOf(sel.X)
	name := c.canonRecv(sel.X)
	switch namedTypeName(recvType) {
	case "Dense":
		if d, ok := c.dimsOf(name); ok {
			return symMul{symConst(2), symMul{d.rows, d.cols}}, true
		}
		return symUnknown{}, true
	case "CSC":
		if name == "" {
			return symUnknown{}, true
		}
		return symMul{symConst(2), symVar("NNZ(" + name + ")")}, true
	}
	return nil, false
}

// lenFlops prices a 2-flops-per-element vector kernel over the slice e.
func (c *costWalk) lenFlops(e ast.Expr) symExpr {
	l := c.st.symLen(e)
	if isUnknown(l) {
		return symUnknown{}
	}
	return symMul{symConst(2), l}
}

// canonRecv renders the canonical name of a kernel receiver: a field chain
// resolves directly, a local resolves through its recorded value
// (blk := g.blocks[r.ID] → "blocks[]").
func (c *costWalk) canonRecv(e ast.Expr) string {
	if _, key, ok := c.st.canonRef(e); ok {
		return key
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := c.st.info.Uses[id]; obj != nil {
			if v, ok := c.st.val[obj].(symVar); ok {
				return string(v)
			}
		}
		return id.Name
	}
	return ""
}

// dimsOf looks up the symbolic dimensions of a matrix field of the
// enclosing operator type.
func (c *costWalk) dimsOf(name string) (dimPair, bool) {
	if name == "" || c.opType == "" {
		return dimPair{}, false
	}
	dims := c.shapes.dims[c.opType]
	if dims == nil {
		return dimPair{}, false
	}
	d, ok := dims[name]
	return d, ok
}

// isFloatExpr reports whether e has (possibly named) floating-point type.
func isFloatExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
