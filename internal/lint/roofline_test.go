package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"extdict/internal/cluster"
	"extdict/internal/dist"
)

// TestRooflineGolden pins the static roofline report: the rows derived from
// the shipped rank functions, classified against the default platform's
// machine balance, must match the checked-in artifact byte for byte. Any
// change to a kernel's flop or byte polynomial — or to the platform cost
// model — shows up as a diff here (and in scripts/ci.sh, which performs the
// same comparison through the CLI).
func TestRooflineGolden(t *testing.T) {
	prog, _ := loadModuleProgram(t)
	var rows []RooflineRow
	for _, path := range []string{"extdict/internal/dist", "extdict/internal/solver"} {
		if pkg := prog.packageByPath(path); pkg != nil {
			rows = append(rows, Roofline(pkg)...)
		}
	}
	if len(rows) == 0 {
		t.Fatal("no roofline rows derived from the shipped tree")
	}
	report := NewRooflineReport(cluster.NewPlatform(1, 1).MachineBalance(), rows)
	got, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	goldenPath := filepath.Join("testdata", "roofline.golden.json")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("roofline report drifted from %s; regenerate with\n\tgo run ./cmd/extdict-lint -roofline %s ./...\ngot:\n%s", goldenPath, goldenPath, got)
	}
}

// TestRooflineAgreesWithRuntimeCounters closes the loop the roofline report
// stands on: the paired flop/byte claim terms of ExDGram.applyCase1,
// evaluated at a real instance's dimensions, must reproduce the simulator's
// TotalFlops and TotalBytes exactly — so the static arithmetic intensity is
// the runtime intensity, not an estimate of it. The bandwidth-bound verdict
// pinned in the golden must then also hold for the runtime ratio.
func TestRooflineAgreesWithRuntimeCounters(t *testing.T) {
	prog, _ := loadModuleProgram(t)
	distPkg := prog.packageByPath("extdict/internal/dist")
	if distPkg == nil {
		t.Fatal("dist package not loaded")
	}
	find := func(costs []funcCost, fn string) *funcCost {
		for _, c := range costs {
			if c.fn == fn {
				c := c
				return &c
			}
		}
		return nil
	}
	fc := find(deriveCosts(distPkg), "ExDGram.applyCase1")
	bc := find(deriveBytes(distPkg), "ExDGram.applyCase1")
	if fc == nil || bc == nil {
		t.Fatal("no derived costs for ExDGram.applyCase1")
	}

	// Same Case 1 instance as the costmodel and memmodel symbolic tests.
	const M, L, N, P = 30, 20, 80, 4
	a := genMatrix(t, M, N, 10)
	tr := fitTransform(t, a, L)
	plat := cluster.NewPlatform(1, P)
	g, err := dist.NewExDGram(cluster.NewComm(plat), tr.D, tr.C)
	if err != nil {
		t.Fatal(err)
	}
	st := g.Apply(make([]float64, N), make([]float64, N))
	if st.TotalFlops == 0 || st.TotalBytes == 0 {
		t.Fatalf("runtime counters empty: flops=%d bytes=%d", st.TotalFlops, st.TotalBytes)
	}

	sum := func(c *funcCost, bind map[string]int64, rank int) int64 {
		var total int64
		for _, term := range claimTerms(c.terms) {
			switch term.guard {
			case "":
			case "r.ID == 0":
				if rank != 0 {
					continue
				}
			default:
				t.Fatalf("unexpected guard %q in applyCase1", term.guard)
			}
			v, ok := evalSym(term.derived, c.subst, bind)
			if !ok {
				t.Fatalf("cannot evaluate %s under %v", term.derived.render(), bind)
			}
			total += v
		}
		return total
	}
	var staticFlops, staticBytes int64
	for i := 0; i < P; i++ {
		lo, hi := dist.BlockRange(N, P, i)
		bind := map[string]int64{
			"m": M, "l": L,
			"NNZ(blocks[])": int64(tr.C.ColSliceRange(lo, hi).NNZ()),
			"ranges[][0]":   int64(lo),
			"ranges[][1]":   int64(hi),
		}
		staticFlops += sum(fc, bind, i)
		staticBytes += sum(bc, bind, i)
	}
	if staticFlops != st.TotalFlops {
		t.Fatalf("static flops %d, runtime counted %d", staticFlops, st.TotalFlops)
	}
	if staticBytes != st.TotalBytes {
		t.Fatalf("static bytes %d, runtime counted %d", staticBytes, st.TotalBytes)
	}

	// The golden classifies every applyCase1 region as bandwidth-bound; the
	// runtime ratio must land on the same side of the ridge.
	balance := plat.MachineBalance()
	runtimeAI := float64(st.TotalFlops) / float64(st.TotalBytes)
	if runtimeAI >= balance {
		t.Fatalf("runtime intensity %.4f at or above machine balance %.4f; golden says bandwidth-bound", runtimeAI, balance)
	}
	for _, row := range Roofline(distPkg) {
		if row.Func != "ExDGram.applyCase1" {
			continue
		}
		report := NewRooflineReport(balance, []RooflineRow{row})
		if report.Kernels[0].Bound != "bandwidth" {
			t.Fatalf("region %d of applyCase1 classified %q, runtime says bandwidth", row.Region, report.Kernels[0].Bound)
		}
	}
}
