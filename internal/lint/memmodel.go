package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// MemModel statically pins the memory-traffic accounting of internal/dist
// and internal/solver to the code: it derives a symbolic bytes-streamed
// expression for the region of a rank body preceding each r.AddBytes call —
// kernel calls through their byte contracts, loop nests as trip count ×
// inner traffic — and reports when the AddBytes argument cannot equal the
// derived expression. It is the static half of the roofline model: the
// derived polynomials are the denominators of the arithmetic-intensity
// report (extdict-lint -roofline), and the runtime Stats.TotalBytes counters
// they prove are the ground truth the golden tests compare against.
//
// The byte contracts model compulsory (streaming) traffic — every operand
// touched once per kernel pass, in float64 (8-byte) words and 8-byte sparse
// indices:
//
//	Dense MulVec/MulVecT (and Par* forms) 8·(rows·cols + rows + cols)
//	CSC MulVec                            16·nnz + 8·(2·len(x) + len(y) + 1)
//	CSC MulVecT                           16·nnz + 8·(len(x) + 2·len(y) + 1)
//	mat.Dot                               16·len(x)
//	mat.Axpy                              24·len(x)
//	mat.Zero                              8·len(x)
//
// (The CSC constant is the column-pointer array, 8·(cols+1) bytes, with the
// cols-side vector's length standing for cols.) Cache reuse below a whole
// kernel pass is deliberately not modeled: the contracts are the compulsory
// lower bound the roofline classifies against, and deviations — a blocked
// kernel that re-streams, a fused pass that reads less — must be argued
// with a //lint:ignore memmodel directive, not silently absorbed.
var MemModel = &Analyzer{
	Name: "memmodel",
	Doc: "every r.AddBytes argument must symbolically equal the memory-" +
		"traffic polynomial derived from the preceding kernel calls " +
		"through their byte contracts, the static denominator of the " +
		"roofline model",
	SkipTests: true,
	Run: func(p *Pass) {
		if !inAnyPkg(p.Pkg.ImportPath, "extdict/internal/dist", "extdict/internal/solver") {
			return
		}
		if p.Pkg.TypesInfo == nil {
			return
		}
		for _, fc := range deriveBytes(p.Pkg) {
			subst := fc.subst
			for _, term := range fc.terms {
				switch {
				case term.unsupported:
					p.Reportf(term.pos,
						"AddBytes inside a loop cannot be checked against the static memory model; hoist the accounting out of the loop")
				case term.claim != nil:
					pd, okD := normalize(term.derived, subst)
					pc, okC := normalize(term.claim, subst)
					if !okD || !okC {
						p.Reportf(term.pos,
							"cannot derive a symbolic byte count for the code preceding this AddBytes; restructure so loop bounds and kernel dimensions resolve through the operator constructor")
						continue
					}
					if !equalPoly(pd, pc) {
						p.Reportf(term.pos,
							"AddBytes claims %s but the preceding kernels stream %s bytes%s (memory-model conformance, roofline denominator)",
							pc.render(), pd.render(), guardSuffix(term.guard))
					}
				default:
					// Trailing streamed bytes with no AddBytes to absorb them.
					p.Reportf(term.pos,
						"bytes streamed here are not covered by any AddBytes call%s; the memory model under-counts this kernel", guardSuffix(term.guard))
				}
			}
		}
	},
}

// deriveBytes derives the symbolic byte terms of every rank function in the
// package — the data behind the memmodel analyzer and the static side of
// the roofline report.
func deriveBytes(pkg *Package) []funcCost {
	shapes := buildShapes(pkg)
	var out []funcCost
	eachRankFunc(pkg, func(name string, ft *ast.FuncType, body *ast.BlockStmt) {
		opType, _, _ := strings.Cut(name, ".")
		if !strings.Contains(name, ".") {
			opType = ""
		}
		bw := &byteWalk{costWalk{
			st:        newSymState(pkg, shapes),
			shapes:    shapes,
			opType:    opType,
			claimName: "AddBytes",
		}}
		bw.stmtCost = bw.stmtBytes
		bw.st.envFixpoint(body)
		terms := bw.region(body.List, "")
		out = append(out, funcCost{fn: name, terms: terms, subst: shapes.substFor(opType)})
	})
	return out
}

// byteWalk derives symbolic byte-traffic expressions over one rank body,
// reusing the costWalk region machinery with byte semantics: only kernel
// calls carry traffic; scalar arithmetic and index math stream nothing.
type byteWalk struct {
	costWalk
}

// stmtBytes derives the kernel memory traffic one statement streams.
func (c *byteWalk) stmtBytes(s ast.Stmt) symExpr {
	switch s := s.(type) {
	case *ast.ExprStmt:
		return c.exprBytes(s.X)
	case *ast.AssignStmt:
		total := symExpr(symConst(0))
		for _, rhs := range s.Rhs {
			total = symAdd{total, c.exprBytes(rhs)}
		}
		return total
	case *ast.IfStmt:
		total := c.exprBytes(s.Cond)
		total = symAdd{total, c.blockBytes(s.Body)}
		if s.Else != nil {
			total = symAdd{total, c.stmtBytes(s.Else)}
		}
		return total
	case *ast.ForStmt:
		trip := c.forTrip(s)
		body := c.blockBytes(s.Body)
		return c.loopFlops(trip, body)
	case *ast.RangeStmt:
		trip := c.st.symLen(s.X)
		body := c.blockBytes(s.Body)
		return c.loopFlops(trip, body)
	case *ast.BlockStmt:
		return c.blockBytes(s)
	case *ast.DeclStmt:
		total := symExpr(symConst(0))
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						total = symAdd{total, c.exprBytes(v)}
					}
				}
			}
		}
		return total
	case *ast.ReturnStmt:
		total := symExpr(symConst(0))
		for _, e := range s.Results {
			total = symAdd{total, c.exprBytes(e)}
		}
		return total
	}
	return symConst(0)
}

func (c *byteWalk) blockBytes(b *ast.BlockStmt) symExpr {
	total := symExpr(symConst(0))
	for _, s := range b.List {
		total = symAdd{total, c.stmtBytes(s)}
	}
	return total
}

// exprBytes finds kernel calls in an expression and sums their byte
// contracts; everything else streams nothing.
func (c *byteWalk) exprBytes(e ast.Expr) symExpr {
	switch e := ast.Unparen(e).(type) {
	case *ast.BinaryExpr:
		return symAdd{c.exprBytes(e.X), c.exprBytes(e.Y)}
	case *ast.CallExpr:
		total := symExpr(symConst(0))
		if k, ok := c.kernelBytes(e); ok {
			total = k
		}
		for _, arg := range e.Args {
			total = symAdd{total, c.exprBytes(arg)}
		}
		return total
	case *ast.UnaryExpr:
		return c.exprBytes(e.X)
	case *ast.IndexExpr:
		return symAdd{c.exprBytes(e.X), c.exprBytes(e.Index)}
	case *ast.SelectorExpr:
		return c.exprBytes(e.X)
	case *ast.SliceExpr:
		return c.exprBytes(e.X)
	case *ast.StarExpr:
		return c.exprBytes(e.X)
	}
	return symConst(0)
}

// kernelBytes prices a kernel call through its byte contract (see the
// analyzer doc). The pool-parallel kernels carry the same contracts as
// their serial forms: chunking partitions the streams without changing
// their total length.
func (c *byteWalk) kernelBytes(call *ast.CallExpr) (symExpr, bool) {
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
						return c.lenBytes(call.Args[0], 16), true
					}
				case "Axpy":
					if len(call.Args) == 3 {
						return c.lenBytes(call.Args[1], 24), true
					}
				case "Zero":
					if len(call.Args) == 1 {
						return c.lenBytes(call.Args[0], 8), true
					}
				}
			}
			return nil, false
		}
	}
	var transposed bool
	switch sel.Sel.Name {
	case "MulVec", "ParMulVec":
	case "MulVecT", "ParMulVecT":
		transposed = true
	default:
		return nil, false
	}
	recvType := c.st.info.TypeOf(sel.X)
	name := c.canonRecv(sel.X)
	switch namedTypeName(recvType) {
	case "Dense":
		// The matrix streams once; the input and output vectors are one
		// rows-length and one cols-length pass between them, whichever way
		// the product runs.
		if d, ok := c.dimsOf(name); ok {
			return symMul{symConst(8),
				symAdd{symMul{d.rows, d.cols}, symAdd{d.rows, d.cols}}}, true
		}
		return symUnknown{}, true
	case "CSC":
		// Values + row indices over nnz, the column-pointer array, one pass
		// over the rows-side vector and two (gather + scatter via the
		// column walk) over the cols-side one.
		if name == "" || len(call.Args) < 2 {
			return symUnknown{}, true
		}
		x := c.st.symLen(call.Args[0])
		y := c.st.symLen(call.Args[len(call.Args)-1])
		if isUnknown(x) || isUnknown(y) {
			return symUnknown{}, true
		}
		colsSide := x // MulVec: x spans the columns
		if transposed {
			colsSide = y
		}
		vecs := symAdd{symAdd{x, y}, symAdd{colsSide, symConst(1)}}
		return symAdd{
			symMul{symConst(16), symVar("NNZ(" + name + ")")},
			symMul{symConst(8), vecs},
		}, true
	}
	return nil, false
}

// lenBytes prices a per-element vector kernel at mult bytes per element of
// the slice e.
func (c *byteWalk) lenBytes(e ast.Expr, mult int64) symExpr {
	l := c.st.symLen(e)
	if isUnknown(l) {
		return symUnknown{}
	}
	return symMul{symConst(mult), l}
}
