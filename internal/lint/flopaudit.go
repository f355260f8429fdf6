package lint

import (
	"go/ast"
	"go/types"
)

// kernelCalls are the mat/sparse operations that execute floating point
// work. A distributed kernel that calls one of these on behalf of a rank
// must report the flops, or the cost model's Eq. 2/3 accounting silently
// under-counts.
var kernelCalls = map[string]bool{
	"MulVec": true, "MulVecT": true, "Mul": true, "MulTo": true,
	"ParMulVec": true, "ParMulVecT": true, "ParATA": true,
	"ATA": true, "GramColumns": true,
	"Dot": true, "Axpy": true, "AxpyDot": true, "AxpyNorm2": true,
	"AxpyRowsTo": true, "AddVec": true, "SubVec": true,
	"ScaleVec": true, "Norm2": true, "SolveInPlace": true,
	"ForwardNext": true, "BackSolveInPlace": true,
	"SolveLeastSquares": true, "Factorize": true,
}

// FlopAudit is a heuristic check over internal/dist and internal/solver: any
// function (declaration or literal) that receives a *cluster.Rank and calls
// a flop-performing kernel must also call AddFlops somewhere in its body.
// The check is syntactic — it cannot prove the count is right, only that the
// author remembered the instrumentation hook. Genuine zero-flop uses are
// suppressible with a justification.
var FlopAudit = &Analyzer{
	Name: "flopaudit",
	Doc: "in internal/dist and internal/solver, a function taking a " +
		"*cluster.Rank that calls mat kernels must also call AddFlops so " +
		"the cost model's flop accounting stays exact",
	Run: func(p *Pass) {
		if !inAnyPkg(p.Pkg.ImportPath, "extdict/internal/dist", "extdict/internal/solver") {
			return
		}
		p.EachFile(func(f *ast.File) {
			info := p.Pkg.TypesInfo
			clusterName, imported := ImportName(f, "extdict/internal/cluster")
			if info == nil && !imported {
				return
			}
			ast.Inspect(f, func(n ast.Node) bool {
				var ft *ast.FuncType
				var body *ast.BlockStmt
				switch fn := n.(type) {
				case *ast.FuncDecl:
					ft, body = fn.Type, fn.Body
				case *ast.FuncLit:
					ft, body = fn.Type, fn.Body
				default:
					return true
				}
				if body == nil || !takesRank(ft, info, clusterName) {
					return true
				}
				kernel, counted := auditBody(body)
				if kernel != "" && !counted {
					p.Reportf(n.Pos(),
						"rank function calls kernel %s but never calls AddFlops; report the flops or justify with //lint:ignore flopaudit", kernel)
				}
				return true
			})
		})
	},
}

// takesRank reports whether the signature has a *cluster.Rank parameter.
// With type information the parameter type is resolved, so in-file type
// aliases and renamed imports cannot hide it; otherwise it falls back to
// the syntactic *<clusterName>.Rank shape.
func takesRank(ft *ast.FuncType, info *types.Info, clusterName string) bool {
	if info != nil {
		if ft.Params != nil {
			for _, field := range ft.Params.List {
				if t := info.TypeOf(field.Type); t != nil && isRankPtr(t) {
					return true
				}
			}
		}
		return false
	}
	return takesRankParam(ft, clusterName)
}

// takesRankParam reports whether the signature has a *cluster.Rank parameter
// (with cluster imported under clusterName).
func takesRankParam(ft *ast.FuncType, clusterName string) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		star, ok := field.Type.(*ast.StarExpr)
		if !ok {
			continue
		}
		sel, ok := star.X.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Rank" {
			continue
		}
		if id, ok := sel.X.(*ast.Ident); ok && id.Name == clusterName {
			return true
		}
	}
	return false
}

// auditBody scans a function body for kernel calls and AddFlops calls,
// returning the first kernel name seen and whether AddFlops appears.
func auditBody(body *ast.BlockStmt) (kernel string, counted bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := ""
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		case *ast.Ident:
			name = fun.Name
		}
		switch {
		case name == "AddFlops":
			counted = true
		case kernelCalls[name] && kernel == "":
			kernel = name
		}
		return true
	})
	return kernel, counted
}
