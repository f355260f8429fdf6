package lint

import (
	"testing"

	"extdict/internal/cluster"
	"extdict/internal/dist"
)

// TestCostModelSymbolicFlops reproduces TestExDGramFlopAccounting's expected
// value from the static cost model alone: the symbolic terms derived from
// applyCase1 — 2·nnz_i per sparse product on every rank, 4·M·L under the
// "r.ID == 0" guard — are evaluated with the instance's dimensions and must
// sum to exactly the runtime-counted TotalFlops. This pins the code's flop
// accounting to Eqs. 2-4 in both directions: the analyzer proves each claim
// equals the derived expression, and this test proves the derived
// expressions predict the machine.
func TestCostModelSymbolicFlops(t *testing.T) {
	prog, _ := loadModuleProgram(t)
	distPkg := prog.packageByPath("extdict/internal/dist")
	if distPkg == nil {
		t.Fatal("dist package not loaded")
	}
	var fc *funcCost
	for _, c := range deriveCosts(distPkg) {
		if c.fn == "ExDGram.applyCase1" {
			c := c
			fc = &c
		}
	}
	if fc == nil {
		t.Fatal("no derived costs for ExDGram.applyCase1")
	}

	// Same instance as dist's TestExDGramFlopAccounting: M=30, L=20, Case 1.
	const M, L, N, P = 30, 20, 80, 4
	a := genMatrix(t, M, N, 10)
	tr := fitTransform(t, a, L)
	plat := cluster.NewPlatform(1, P)
	g, err := dist.NewExDGram(cluster.NewComm(plat), tr.D, tr.C)
	if err != nil {
		t.Fatal(err)
	}
	st := g.Apply(make([]float64, N), make([]float64, N))

	// Evaluate the symbolic terms per rank, binding the per-rank sparse
	// population through the same column partition the constructor uses.
	var total int64
	for i := 0; i < P; i++ {
		lo, hi := dist.BlockRange(N, P, i)
		nnz := tr.C.ColSliceRange(lo, hi).NNZ()
		bind := map[string]int64{"m": M, "l": L, "NNZ(blocks[])": int64(nnz)}
		for _, term := range fc.terms {
			if term.claim == nil || term.unsupported {
				continue
			}
			switch term.guard {
			case "":
			case "r.ID == 0":
				if i != 0 {
					continue
				}
			default:
				t.Fatalf("unexpected guard %q in applyCase1", term.guard)
			}
			// The analyzer already proves claim == derived symbolically;
			// evaluate the derived side so this test exercises the
			// derivation, not the annotation.
			pd, okD := normalize(term.derived, fc.subst)
			pc, okC := normalize(term.claim, fc.subst)
			if !okD || !okC || !equalPoly(pd, pc) {
				t.Fatalf("claim %s does not match derived %s", term.claim.render(), term.derived.render())
			}
			v, ok := evalSym(term.derived, fc.subst, bind)
			if !ok {
				t.Fatalf("cannot evaluate %s under %v", term.derived.render(), bind)
			}
			total += v
		}
	}

	// Case 1 totals: 4·nnz(C) for the sparse products + 4·M·L on rank 0.
	want := int64(4*tr.C.NNZ() + 4*M*L)
	if total != want {
		t.Fatalf("symbolic total %d, want %d", total, want)
	}
	if total != st.TotalFlops {
		t.Fatalf("symbolic total %d, runtime counted %d", total, st.TotalFlops)
	}
}
