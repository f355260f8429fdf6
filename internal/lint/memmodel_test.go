package lint

import (
	"testing"

	"extdict/internal/cluster"
	"extdict/internal/dist"
)

// TestMemModelSymbolicBytes closes the static/runtime loop for the memory
// model the same way TestCostModelSymbolicFlops does for flops: the
// symbolic byte terms derived from ExDGram.applyCase1 — the CSC contracts
// per rank, the dense dictionary round trip under the "r.ID == 0" guard —
// are evaluated with the instance's dimensions and must sum to exactly the
// runtime-counted TotalBytes. The analyzer proves each AddBytes claim
// equals the derived polynomial; this test proves the derived polynomials
// predict the machine's counters.
func TestMemModelSymbolicBytes(t *testing.T) {
	prog, _ := loadModuleProgram(t)
	distPkg := prog.packageByPath("extdict/internal/dist")
	if distPkg == nil {
		t.Fatal("dist package not loaded")
	}
	var fc *funcCost
	for _, c := range deriveBytes(distPkg) {
		if c.fn == "ExDGram.applyCase1" {
			c := c
			fc = &c
		}
	}
	if fc == nil {
		t.Fatal("no derived bytes for ExDGram.applyCase1")
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
	if st.TotalBytes == 0 {
		t.Fatal("runtime counted zero bytes; AddBytes claims missing")
	}

	// Evaluate the symbolic terms per rank; unlike the flop test the byte
	// polynomials also carry the rank's column window (ranges[][0/1]) for
	// the vector-end traffic, so bind those per rank too.
	var total int64
	for i := 0; i < P; i++ {
		lo, hi := dist.BlockRange(N, P, i)
		nnz := tr.C.ColSliceRange(lo, hi).NNZ()
		bind := map[string]int64{
			"m": M, "l": L,
			"NNZ(blocks[])": int64(nnz),
			"ranges[][0]":   int64(lo),
			"ranges[][1]":   int64(hi),
		}
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

	// Case 1 totals: the two CSC passes per rank plus the dictionary round
	// trip on rank 0 (16-byte operand pairs over nnz and the dense block).
	var want int64
	for i := 0; i < P; i++ {
		lo, hi := dist.BlockRange(N, P, i)
		ni := int64(hi - lo)
		nnz := int64(tr.C.ColSliceRange(lo, hi).NNZ())
		want += 16*nnz + 8*(2*ni+L+1) // C_i·x_i
		want += 16*nnz + 8*(L+2*ni+1) // C_iᵀ·v³
	}
	want += 16 * (M*L + M + L) // rank 0: D·v¹ then Dᵀ·v²
	if total != want {
		t.Fatalf("symbolic total %d, want %d", total, want)
	}
	if total != st.TotalBytes {
		t.Fatalf("symbolic total %d, runtime counted %d", total, st.TotalBytes)
	}
}
