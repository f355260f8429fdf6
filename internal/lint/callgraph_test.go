package lint

import (
	"go/ast"
	"testing"
)

// callees returns the resolved call edges out of the node's body, in source
// order. Edges through function values are not resolved — only direct calls
// to declared functions and methods.
func (n *funcNode) callees(cg *callGraph) []*funcNode {
	var out []*funcNode
	ast.Inspect(n.decl.Body, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			if c := cg.calleeOf(n.pkg, call); c != nil {
				out = append(out, c)
			}
		}
		return true
	})
	return out
}

// TestCallGraphResolvesDistHelpers proves the whole-program graph indexes
// dist's rank helpers under stable ids and resolves method calls to them.
func TestCallGraphResolvesDistHelpers(t *testing.T) {
	prog, _ := loadModuleProgram(t)
	n := prog.graph.nodeByName("extdict/internal/dist", "ExDGram.applyCase1")
	if n == nil {
		t.Fatal("ExDGram.applyCase1 missing from the call graph")
	}
	if n.id != "extdict/internal/dist.(ExDGram).applyCase1" {
		t.Fatalf("unexpected id %q", n.id)
	}
	// Receiver + (r, x, y): parameters in call-site order, receiver first.
	if len(n.params) != 4 || n.params[0] == nil {
		t.Fatalf("params = %v", n.params)
	}

	apply := prog.graph.nodeByName("extdict/internal/dist", "ExDGram.Apply")
	if apply == nil {
		t.Fatal("ExDGram.Apply missing from the call graph")
	}
	callees := make(map[string]bool)
	for _, c := range apply.callees(prog.graph) {
		callees[c.name] = true
	}
	if !callees["ExDGram.applyCase1"] || !callees["ExDGram.applyCase2"] {
		t.Fatalf("Apply's resolved callees %v miss the case helpers", callees)
	}
}

// TestSummaryLattice checks the per-function summaries on the interproc
// fixture: returned rank-taint, returned lengths, parameter-deferred
// dependencies, and recorded collectives.
func TestSummaryLattice(t *testing.T) {
	pkg := parseFixture(t, fixturePath("collective", "interproc.go"), "extdict/internal/dist")
	prog := NewProgram([]*Package{pkg})

	// myRoot returns r.ID%2: inherently rank-varying.
	sum := prog.summaries["extdict/internal/dist.myRoot"]
	if sum == nil || len(sum.retVal) != 1 || !sum.retVal[0].inherent {
		t.Fatalf("myRoot summary = %+v", sum)
	}

	// localPart returns v[:r.ID+1]: the returned length is rank-varying.
	sum = prog.summaries["extdict/internal/dist.localPart"]
	if sum == nil || len(sum.retLen) != 1 || !sum.retLen[0].inherent {
		t.Fatalf("localPart summary = %+v", sum)
	}

	// scratch(n) returns make([]float64, n): length defers to the caller's
	// first value argument, varying only if the call site's does.
	sum = prog.summaries["extdict/internal/dist.scratch"]
	if sum == nil || len(sum.retLen) != 1 {
		t.Fatalf("scratch summary = %+v", sum)
	}
	if d := sum.retLen[0]; d.inherent || d.valParams != 1<<0 {
		t.Fatalf("scratch returned length = %+v, want deferred to value param 0", d)
	}

	// doReduce(r, v) records one Reduce whose length defers to param 1 and
	// whose root is uniform.
	sum = prog.summaries["extdict/internal/dist.doReduce"]
	if sum == nil || len(sum.colls) != 1 {
		t.Fatalf("doReduce summary = %+v", sum)
	}
	c := sum.colls[0]
	if c.op != "Reduce" || c.root.inherent || c.length.inherent || c.length.lenParams != 1<<1 {
		t.Fatalf("doReduce collective = %+v", c)
	}

	// level1 reaches level2's Barrier transitively.
	sum = prog.summaries["extdict/internal/dist.level1"]
	if sum == nil || len(sum.colls) != 1 || sum.colls[0].op != "Barrier" {
		t.Fatalf("level1 summary = %+v", sum)
	}
}
