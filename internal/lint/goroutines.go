package lint

import "go/ast"

// Goroutines restricts `go` statements to the four packages that own
// concurrency: the cluster runtime (rank goroutines), mat (the worker pool),
// omp (batch workers), and serve (per-shard batchers, the HTTP accept
// loop, and the load-test clients). Concurrency anywhere else escapes the
// flop accounting and the deterministic reduction order those packages
// were built to protect. Tests may spawn goroutines only in the same
// packages; a test that needs one elsewhere should drive the owning
// package's API instead.
var Goroutines = &Analyzer{
	Name: "goroutines",
	Doc: "forbid go statements outside internal/cluster, internal/mat, " +
		"internal/omp, and internal/serve — the packages that own concurrency " +
		"and its accounting",
	Run: func(p *Pass) {
		if inAnyPkg(p.Pkg.ImportPath,
			"extdict/internal/cluster", "extdict/internal/mat",
			"extdict/internal/omp", "extdict/internal/serve") {
			return
		}
		p.EachFile(func(f *ast.File) {
			ast.Inspect(f, func(n ast.Node) bool {
				if g, ok := n.(*ast.GoStmt); ok {
					p.Reportf(g.Pos(),
						"go statement outside the concurrency-owning packages (cluster, mat, omp); route parallelism through their APIs")
				}
				return true
			})
		})
	},
}
