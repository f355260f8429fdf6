package lint

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"extdict/internal/cluster"
	"extdict/internal/dist"
	"extdict/internal/perf"
)

// TestCapacityGolden pins the static capacity report: the peak-resident
// polynomials derived from the shipped rank entry points, evaluated at the
// documented reference shapes and classified against the default platform's
// per-rank RAM, must match the checked-in artifact byte for byte. Any
// change to an operator's resident set — or to the capacity itself — shows
// up as a diff here (and in scripts/ci.sh, which performs the same
// comparison through the CLI).
func TestCapacityGolden(t *testing.T) {
	prog, _ := loadModuleProgram(t)
	var rows []CapacityRow
	for _, path := range []string{"extdict/internal/dist", "extdict/internal/solver"} {
		if pkg := prog.packageByPath(path); pkg != nil {
			rows = append(rows, Capacity(pkg)...)
		}
	}
	if len(rows) == 0 {
		t.Fatal("no capacity rows derived from the shipped tree")
	}
	report := NewCapacityReport(cluster.NewPlatform(1, 1).MemBytesCapacity(), rows)
	got, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	goldenPath := filepath.Join("testdata", "capacity.golden.json")
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("capacity report drifted from %s; regenerate with\n\tgo run ./cmd/extdict-lint -capacity %s ./...\ngot:\n%s", goldenPath, goldenPath, got)
	}
}

// TestCapacityGoldenVerdicts pins the report's punchline independent of the
// exact byte values: every shipped figure configuration fits in the default
// 2 GiB per rank, and the ROADMAP item 5 shape (5 billion stored
// coefficients over a 100M-column corpus) does not — the static motivation
// for the out-of-core schedule.
func TestCapacityGoldenVerdicts(t *testing.T) {
	prog, _ := loadModuleProgram(t)
	distPkg := prog.packageByPath("extdict/internal/dist")
	if distPkg == nil {
		t.Fatal("dist package not loaded")
	}
	report := NewCapacityReport(cluster.NewPlatform(1, 1).MemBytesCapacity(), Capacity(distPkg))
	if len(report.Entries) == 0 {
		t.Fatal("empty capacity report")
	}
	for _, row := range report.Entries {
		want := "fits"
		if row.Config == "roadmap5-5Bnnz" {
			want = "needs-out-of-core"
		}
		if row.Verdict != want {
			t.Errorf("%s at %s: verdict %q, want %q (%d bytes against %d)",
				row.Func, row.Config, row.Verdict, want, row.BytesPerRank, report.CapacityBytes)
		}
	}
}

// TestCapacityAgreesWithRuntime closes the loop the capacity report stands
// on: the resident-set polynomials derived from ExDGram.applyCase1,
// evaluated per rank at a real instance's dimensions (guarded terms on
// rank 0 only), must reproduce the simulator's PeakResidentPerRank exactly —
// so a "fits" verdict is a statement about the machine's counters, not an
// estimate. The allocmodel analyzer proves each AddResident claim equals the
// derived polynomial; this test proves the derived polynomials are the
// runtime high-water marks.
func TestCapacityAgreesWithRuntime(t *testing.T) {
	prog, _ := loadModuleProgram(t)
	distPkg := prog.packageByPath("extdict/internal/dist")
	if distPkg == nil {
		t.Fatal("dist package not loaded")
	}
	var fc *funcCost
	for _, c := range deriveResident(distPkg) {
		if c.fn == "ExDGram.applyCase1" {
			c := c
			fc = &c
		}
	}
	if fc == nil {
		t.Fatal("no derived resident set for ExDGram.applyCase1")
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
	if len(st.PeakResidentPerRank) != P {
		t.Fatalf("runtime reported %d resident ranks, want %d", len(st.PeakResidentPerRank), P)
	}

	for i := 0; i < P; i++ {
		lo, hi := dist.BlockRange(N, P, i)
		bind := map[string]int64{
			"m": M, "l": L,
			"NNZ(blocks[])": int64(tr.C.ColSliceRange(lo, hi).NNZ()),
			"ranges[][0]":   int64(lo),
			"ranges[][1]":   int64(hi),
		}
		var static int64
		for _, term := range claimTerms(fc.terms) {
			switch term.guard {
			case "":
			case "r.ID == 0":
				if i != 0 {
					continue
				}
			default:
				t.Fatalf("unexpected guard %q in applyCase1", term.guard)
			}
			v, ok := evalSym(term.derived, fc.subst, bind)
			if !ok {
				t.Fatalf("cannot evaluate %s under %v", term.derived.render(), bind)
			}
			static += v
		}
		if static != st.PeakResidentPerRank[i] {
			t.Fatalf("rank %d: static resident set %d bytes, runtime counted %d", i, static, st.PeakResidentPerRank[i])
		}
		if static == 0 {
			t.Fatalf("rank %d: zero derived resident set", i)
		}
	}
}

// TestPerfMemoryAgreesWithCapacityModel pins perf.Estimate.MemoryWordsPerRank
// to the allocmodel polynomials: at a shape where the uniform partition is
// exact, each predictor's words-per-rank, scaled to bytes, must equal the
// corresponding entry point's derived worst-rank resident set (all claim
// regions summed — rank 0 carries the guarded dictionary term). This is the
// regression gate for the Eq. 4 closed forms: a formula drifting from the
// operators' actual allocations fails here, not in a reviewer's head.
func TestPerfMemoryAgreesWithCapacityModel(t *testing.T) {
	prog, _ := loadModuleProgram(t)
	distPkg := prog.packageByPath("extdict/internal/dist")
	if distPkg == nil {
		t.Fatal("dist package not loaded")
	}
	derived := make(map[string]funcCost)
	for _, c := range deriveResident(distPkg) {
		derived[c.fn] = c
	}
	worst := func(fn string, bind map[string]int64) int64 {
		c, ok := derived[fn]
		if !ok {
			t.Fatalf("no derived resident set for %s", fn)
		}
		var total int64
		for _, term := range claimTerms(c.terms) {
			v, ok := evalSym(term.derived, c.subst, bind)
			if !ok {
				t.Fatalf("%s: cannot evaluate %s under %v", fn, term.derived.render(), bind)
			}
			total += v
		}
		return total
	}

	const M, N, L, NNZ, B, P = 128, 16384, 256, 524288, 64, 4
	plat := cluster.NewPlatform(1, P)
	cases := []struct {
		fn    string
		words float64
		bind  map[string]int64
	}{
		{
			fn:    "ExDGram.applyCase1",
			words: perf.PredictTransformed(M, N, L, NNZ, plat).MemoryWordsPerRank,
			bind: map[string]int64{
				"m": M, "l": L,
				"NNZ(blocks[])": NNZ / P,
				"ranges[][0]":   0,
				"ranges[][1]":   N / P,
			},
		},
		{
			fn:    "DenseGram.Apply#1",
			words: perf.PredictDense(M, N, plat).MemoryWordsPerRank,
			bind: map[string]int64{
				"m":           M,
				"ranges[][0]": 0,
				"ranges[][1]": N / P,
			},
		},
		{
			fn:    "BatchGram.Apply#1",
			words: perf.PredictSGD(M, N, B, plat).MemoryWordsPerRank,
			bind:  map[string]int64{"a.Rows": M, "n": N, "B": B},
		},
	}
	for _, tc := range cases {
		static := worst(tc.fn, tc.bind)
		if got := int64(tc.words) * 8; got != static {
			t.Errorf("%s: perf predicts %d resident bytes per rank, capacity model derives %d", tc.fn, got, static)
		}
	}
}
