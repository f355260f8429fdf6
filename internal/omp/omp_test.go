package omp

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"extdict/internal/mat"
	"extdict/internal/rng"
)

// unitDictionary returns an M×L dictionary with unit-norm random columns.
func unitDictionary(r *rng.RNG, m, l int) *mat.Dense {
	d := mat.NewDense(m, l)
	for i := range d.Data {
		d.Data[i] = r.NormFloat64()
	}
	d.NormalizeColumns()
	return d
}

// synthSparse builds a signal that is an exact k-sparse combination of
// dictionary atoms, returning the signal and the support.
func synthSparse(r *rng.RNG, d *mat.Dense, k int) ([]float64, map[int]float64) {
	support := map[int]float64{}
	idx := r.Subset(d.Cols, k)
	x := make([]float64, d.Cols)
	for _, j := range idx {
		c := 1 + r.Float64() // bounded away from zero
		if r.Float64() < 0.5 {
			c = -c
		}
		support[j] = c
		x[j] = c
	}
	return d.MulVec(x, nil), support
}

func reconstruct(d *mat.Dense, res Result) []float64 {
	y := make([]float64, d.Rows)
	for i, j := range res.Idx {
		c := res.Coef[i]
		for row := 0; row < d.Rows; row++ {
			y[row] += c * d.At(row, j)
		}
	}
	return y
}

func TestEncodeZeroSignal(t *testing.T) {
	r := rng.New(1)
	d := unitDictionary(r, 8, 16)
	res := Encode(d, make([]float64, 8), 0.1, 0)
	if res.Iters != 0 || len(res.Idx) != 0 || res.Resid2 != 0 {
		t.Fatalf("zero signal produced %+v", res)
	}
	bres := NewBatchCoder(d).Encode(make([]float64, 8), 0.1, 0, nil)
	if bres.Iters != 0 {
		t.Fatal("batch coder failed zero signal")
	}
}

func TestEncodeExactRecovery(t *testing.T) {
	// With an incoherent dictionary and a genuinely sparse signal, OMP with
	// tol→0 must recover the exact support and coefficients.
	r := rng.New(2)
	d := unitDictionary(r, 64, 96)
	for trial := 0; trial < 20; trial++ {
		sig, support := synthSparse(r, d, 4)
		res := Encode(d, sig, 1e-10, 0)
		if len(res.Idx) != len(support) {
			t.Fatalf("trial %d: support size %d, want %d", trial, len(res.Idx), len(support))
		}
		for i, j := range res.Idx {
			want, ok := support[j]
			if !ok {
				t.Fatalf("trial %d: spurious atom %d", trial, j)
			}
			if math.Abs(res.Coef[i]-want) > 1e-8 {
				t.Fatalf("trial %d: coef for atom %d = %v, want %v", trial, j, res.Coef[i], want)
			}
		}
	}
}

func TestEncodeToleranceRespected(t *testing.T) {
	r := rng.New(3)
	d := unitDictionary(r, 32, 64)
	sig := make([]float64, 32)
	for i := range sig {
		sig[i] = r.NormFloat64()
	}
	norm := mat.Norm2(sig)
	for _, tol := range []float64{0.5, 0.2, 0.05} {
		res := Encode(d, sig, tol, 0)
		if math.Sqrt(res.Resid2) > tol*norm+1e-12 {
			t.Fatalf("tol %v violated: resid %v", tol, math.Sqrt(res.Resid2))
		}
		// Reported residual must match the actual reconstruction residual.
		rec := reconstruct(d, res)
		diff := make([]float64, len(sig))
		mat.SubVec(diff, sig, rec)
		if math.Abs(mat.Dot(diff, diff)-res.Resid2) > 1e-8 {
			t.Fatalf("tol %v: reported resid² %v, actual %v",
				tol, res.Resid2, mat.Dot(diff, diff))
		}
	}
}

func TestSmallerToleranceNeverFewerAtoms(t *testing.T) {
	r := rng.New(4)
	d := unitDictionary(r, 24, 48)
	sig := make([]float64, 24)
	for i := range sig {
		sig[i] = r.NormFloat64()
	}
	prev := -1
	for _, tol := range []float64{0.5, 0.3, 0.1, 0.05, 0.01} {
		res := Encode(d, sig, tol, 0)
		if prev >= 0 && res.Iters < prev {
			t.Fatalf("tighter tol used fewer atoms: %d then %d", prev, res.Iters)
		}
		prev = res.Iters
	}
}

func TestMaxAtomsCap(t *testing.T) {
	r := rng.New(5)
	d := unitDictionary(r, 16, 32)
	sig := make([]float64, 16)
	for i := range sig {
		sig[i] = r.NormFloat64()
	}
	res := Encode(d, sig, 0, 3)
	if res.Iters > 3 {
		t.Fatalf("cap violated: %d atoms", res.Iters)
	}
	bres := NewBatchCoder(d).Encode(sig, 0, 3, nil)
	if bres.Iters > 3 {
		t.Fatalf("batch cap violated: %d atoms", bres.Iters)
	}
}

func TestBatchMatchesReference(t *testing.T) {
	// Core property: Batch-OMP and reference OMP agree on supports,
	// reconstructions, and residuals for arbitrary signals. Raw
	// coefficients are NOT compared: a near-degenerate subdictionary makes
	// the coefficient solve ill-conditioned, so the two algorithms can
	// round them differently (up to ~7e-3 in an exhaustive uint16-seed
	// sweep) while the approximations D·coef stay within 1.4e-7. Seeds are
	// drawn from the repo rng rather than testing/quick's time-seeded
	// generator so every run checks the same inputs; 6834 and 32637 are
	// pinned — the worst-conditioned draws found by the sweep.
	seeds := []uint16{6834, 32637}
	sr := rng.New(0xba7c)
	for len(seeds) < 64 {
		seeds = append(seeds, uint16(sr.Intn(1<<16)))
	}
	for _, seed := range seeds {
		r := rng.New(uint64(seed))
		m := 8 + r.Intn(24)
		l := m + r.Intn(2*m)
		d := unitDictionary(r, m, l)
		sig := make([]float64, m)
		for i := range sig {
			sig[i] = r.NormFloat64()
		}
		tol := 0.02 + 0.3*r.Float64()
		ref := Encode(d, sig, tol, 0)
		bat := NewBatchCoder(d).Encode(sig, tol, 0, nil)
		if len(ref.Idx) != len(bat.Idx) {
			t.Fatalf("seed %d: support sizes differ: %d vs %d", seed, len(ref.Idx), len(bat.Idx))
		}
		recon := make([]float64, m)
		for i := range ref.Idx {
			if ref.Idx[i] != bat.Idx[i] {
				t.Fatalf("seed %d: atom %d differs: %d vs %d", seed, i, ref.Idx[i], bat.Idx[i])
			}
			for row := 0; row < m; row++ {
				recon[row] += (ref.Coef[i] - bat.Coef[i]) * d.At(row, ref.Idx[i])
			}
		}
		for row := 0; row < m; row++ {
			if math.Abs(recon[row]) > 1e-6 {
				t.Fatalf("seed %d: reconstructions differ by %g at row %d", seed, recon[row], row)
			}
		}
		if math.Abs(ref.Resid2-bat.Resid2) > 1e-6 {
			t.Fatalf("seed %d: residuals differ by %g", seed, ref.Resid2-bat.Resid2)
		}
	}
}

func TestBatchWorkspaceReuse(t *testing.T) {
	r := rng.New(6)
	d := unitDictionary(r, 16, 40)
	bc := NewBatchCoder(d)
	ws := &Workspace{}
	sigs := make([][]float64, 5)
	for k := range sigs {
		sigs[k] = make([]float64, 16)
		for i := range sigs[k] {
			sigs[k][i] = r.NormFloat64()
		}
	}
	for _, sig := range sigs {
		withWS := bc.Encode(sig, 0.1, 0, ws)
		fresh := bc.Encode(sig, 0.1, 0, nil)
		if len(withWS.Idx) != len(fresh.Idx) {
			t.Fatal("workspace reuse changed the result")
		}
		for i := range withWS.Idx {
			if withWS.Idx[i] != fresh.Idx[i] ||
				math.Abs(withWS.Coef[i]-fresh.Coef[i]) > 1e-10 {
				t.Fatal("workspace reuse changed coefficients")
			}
		}
	}
}

// panelSink keeps EncodePanel's results live so the measured call in
// TestEncodePanelWarmAllocs cannot be optimized away.
var panelSink []Result

// TestEncodePanelWarmAllocs bounds a warm panel's allocations: after the
// first call has stocked the spare list, EncodePanel allocates its results
// (the output slice and each column's Idx and Coef) plus a fixed few words
// of fan-out bookkeeping, and no Workspace or Cholesky storage — a fresh
// workspace alone costs twelve allocations and a maxAtoms² factor.
func TestEncodePanelWarmAllocs(t *testing.T) {
	const (
		b       = 4
		workers = 2
	)
	r := rng.New(10)
	d := unitDictionary(r, 32, 96)
	bc := NewBatchCoder(d)
	cols := make([][]float64, b)
	for k := range cols {
		cols[k] = make([]float64, d.Rows)
		for i := range cols[k] {
			cols[k][i] = r.NormFloat64()
		}
	}
	want := bc.EncodePanel(cols, 0.05, 0, workers)

	allocs := testing.AllocsPerRun(50, func() {
		panelSink = bc.EncodePanel(cols, 0.05, 0, workers)
	})
	// Results take 1 + 2b. The fan-out (closure, borrowed-workspace slice,
	// WaitGroup, one pool job per chunk beyond the first) takes 4 here; the
	// bound leaves one spare, well short of one fresh workspace's twelve.
	if limit := float64(1 + 2*b + 5); allocs > limit {
		t.Fatalf("warm EncodePanel made %v allocations, want ≤ %v", allocs, limit)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	panelSink = bc.EncodePanel(cols, 0.05, 0, workers)
	runtime.ReadMemStats(&after)
	if bytes, chol := after.TotalAlloc-before.TotalAlloc, uint64(8*d.Rows*d.Rows); bytes >= chol {
		t.Fatalf("warm EncodePanel allocated %d bytes, at least one %d-byte Cholesky factor", bytes, chol)
	}
	if len(bc.spare) != workers {
		t.Fatalf("spare list holds %d workspaces, want one per chunk (%d)", len(bc.spare), workers)
	}
	for j, got := range panelSink {
		if got.Iters != want[j].Iters || math.Float64bits(got.Resid2) != math.Float64bits(want[j].Resid2) {
			t.Fatalf("column %d: warm panel differs from the cold one", j)
		}
		for i := range got.Idx {
			if got.Idx[i] != want[j].Idx[i] || math.Float64bits(got.Coef[i]) != math.Float64bits(want[j].Coef[i]) {
				t.Fatalf("column %d: warm panel coefficients differ from the cold one", j)
			}
		}
	}
}

// TestEncodePanelConcurrentCallers shares one coder's spare list among
// several goroutines coding panels of different sizes and fan-outs at
// once (run it under -race); every code must match a serial encode bit for
// bit, whichever borrowed workspace produced it.
func TestEncodePanelConcurrentCallers(t *testing.T) {
	const callers = 4
	r := rng.New(11)
	d := unitDictionary(r, 24, 64)
	bc := NewBatchCoder(d)
	cols := make([][]float64, 12)
	for k := range cols {
		cols[k] = make([]float64, d.Rows)
		for i := range cols[k] {
			cols[k][i] = r.NormFloat64()
		}
	}
	ws := &Workspace{}
	want := make([]Result, len(cols))
	for k, col := range cols {
		want[k] = bc.Encode(col, 0.05, 0, ws)
	}

	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				lo := (c + round) % len(cols)
				panel := cols[lo:]
				got := bc.EncodePanel(panel, 0.05, 0, 1+c)
				for j, res := range got {
					w := want[lo+j]
					if res.Iters != w.Iters || math.Float64bits(res.Resid2) != math.Float64bits(w.Resid2) {
						t.Errorf("caller %d round %d column %d differs from serial encode", c, round, lo+j)
						return
					}
					for i := range w.Idx {
						if res.Idx[i] != w.Idx[i] || math.Float64bits(res.Coef[i]) != math.Float64bits(w.Coef[i]) {
							t.Errorf("caller %d round %d column %d coefficients differ from serial encode", c, round, lo+j)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// codeDiff reports how got differs from want bit for bit — Idx, Coef,
// Resid2, Iters and Norm2 — or "" when they are the same code.
func codeDiff(got, want Result) string {
	switch {
	case !slices.Equal(got.Idx, want.Idx):
		return fmt.Sprintf("support %v, want %v", got.Idx, want.Idx)
	case !slices.EqualFunc(got.Coef, want.Coef, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }):
		return fmt.Sprintf("coefficients %v, want %v", got.Coef, want.Coef)
	case math.Float64bits(got.Resid2) != math.Float64bits(want.Resid2):
		return fmt.Sprintf("Resid2 %v, want %v", got.Resid2, want.Resid2)
	case got.Iters != want.Iters:
		return fmt.Sprintf("Iters %d, want %d", got.Iters, want.Iters)
	case math.Float64bits(got.Norm2) != math.Float64bits(want.Norm2):
		return fmt.Sprintf("Norm2 %v, want %v", got.Norm2, want.Norm2)
	}
	return ""
}

// perColumn codes every column of a on its own with Encode.
func perColumn(bc *BatchCoder, a *mat.Dense, tol float64, maxAtoms int) []Result {
	codes := make([]Result, a.Cols)
	col := make([]float64, a.Rows)
	for j := range codes {
		codes[j] = bc.Encode(a.Col(j, col), tol, maxAtoms, nil)
	}
	return codes
}

func TestEncodeColumnsMatchesPerColumn(t *testing.T) {
	// EncodeColumnsAt codes its columns in index order, in panels whose α⁰
	// come from one MulTo, yet every code — Norm2 included — is Encode's
	// for that column bit for bit, whatever the listing order and worker
	// count. N is not a multiple of panelWidth, so panels run short, and
	// one column is zero.
	r := rng.New(7)
	d := unitDictionary(r, 20, 50)
	a := mat.NewDense(20, 2*panelWidth+7)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	a.SetCol(5, make([]float64, a.Rows))
	bc := NewBatchCoder(d)
	want := perColumn(bc, a, 0.1, 0)
	col := make([]float64, a.Rows)
	for j, w := range want {
		a.Col(j, col)
		if math.Float64bits(w.Norm2) != math.Float64bits(mat.Dot(col, col)) {
			t.Fatalf("column %d: Norm2 %v, want ‖a‖² = %v", j, w.Norm2, mat.Dot(col, col))
		}
	}
	perm := r.Perm(a.Cols)
	for _, workers := range []int{1, 2, 3} {
		got := make([]Result, a.Cols)
		bc.EncodeColumnsAt(a, perm, 0.1, 0, workers, got)
		for j := range got {
			if diff := codeDiff(got[j], want[j]); diff != "" {
				t.Fatalf("%d workers, column %d: %s", workers, j, diff)
			}
		}
	}

	c, iters := bc.EncodeColumns(a, 0.1, 0, 3)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	if c.Rows != 50 || c.Cols != a.Cols {
		t.Fatalf("C shape %dx%d", c.Rows, c.Cols)
	}
	totalIters := 0
	for j, res := range want {
		totalIters += res.Iters
		if c.ColNNZ(j) != len(res.Idx) {
			t.Fatalf("column %d nnz %d, want %d", j, c.ColNNZ(j), len(res.Idx))
		}
		for i, atom := range res.Idx {
			if math.Float64bits(c.At(atom, j)) != math.Float64bits(res.Coef[i]) {
				t.Fatalf("column %d coef mismatch", j)
			}
		}
	}
	if iters != totalIters {
		t.Fatalf("iteration count %d, want %d", iters, totalIters)
	}
}

func TestEncodeColumnsAtInstallments(t *testing.T) {
	// Coding A in two listed installments, in scrambled order and at 1, 2
	// and 3 workers, fills the same slots per-column Encode would, and
	// leaves unlisted slots alone.
	r := rng.New(12)
	d := unitDictionary(r, 20, 50)
	a := mat.NewDense(20, 3*panelWidth+5)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	bc := NewBatchCoder(d)
	want := perColumn(bc, a, 0.1, 0)
	for _, workers := range []int{1, 2, 3} {
		perm := r.Perm(a.Cols)
		split := panelWidth + 3
		codes := make([]Result, a.Cols)
		bc.EncodeColumnsAt(a, perm[:split], 0.1, 0, workers, codes)
		for _, j := range perm[split:] {
			if codes[j].Idx != nil || codes[j].Iters != 0 {
				t.Fatalf("unlisted column %d was coded", j)
			}
		}
		bc.EncodeColumnsAt(a, perm[split:], 0.1, 0, workers, codes)
		for j := range codes {
			if diff := codeDiff(codes[j], want[j]); diff != "" {
				t.Fatalf("%d workers, column %d: %s", workers, j, diff)
			}
		}
	}
}

func TestEncodeReturnsExactLengthCodes(t *testing.T) {
	// Codes hold their atoms at exact length, not the workspace's
	// min(M, L) capacity; a code with no atoms is still non-nil.
	r := rng.New(13)
	d := unitDictionary(r, 48, 96)
	bc := NewBatchCoder(d)
	ws := &Workspace{}
	sig := make([]float64, d.Rows)
	for i := range sig {
		sig[i] = r.NormFloat64()
	}
	res := bc.Encode(sig, 0.5, 0, ws)
	if len(res.Idx) == 0 || cap(res.Idx) != len(res.Idx) || cap(res.Coef) != len(res.Coef) {
		t.Fatalf("code of %d atoms has capacities %d and %d", len(res.Idx), cap(res.Idx), cap(res.Coef))
	}
	if empty := bc.Encode(sig, 1, 0, ws); empty.Idx == nil || len(empty.Idx) != 0 {
		t.Fatalf("an empty code should be non-nil and empty, got %#v", empty.Idx)
	}
}

func TestEncodeColumnsSatisfiesGlobalError(t *testing.T) {
	// Per-column tolerance implies the global Frobenius criterion
	// ‖A - DC‖_F ≤ ε‖A‖_F used in Equation 1.
	r := rng.New(8)
	d := unitDictionary(r, 24, 72)
	a := mat.NewDense(24, 40)
	for i := range a.Data {
		a.Data[i] = r.NormFloat64()
	}
	const eps = 0.15
	bc := NewBatchCoder(d)
	c, _ := bc.EncodeColumns(a, eps, 0, 2)
	diff := mat.Mul(d, c.Dense())
	diff.Sub(a)
	// diff = DC - A; norm identical either sign.
	if diff.FrobNorm() > eps*a.FrobNorm()+1e-9 {
		t.Fatalf("global error %v exceeds %v", diff.FrobNorm()/a.FrobNorm(), eps)
	}
}

func TestFullDictionaryGivesUnitCodes(t *testing.T) {
	// When D == A (L == N), each column codes as a single unit atom
	// (the paper's extreme case: a_i = D e_i, α(N) = 1).
	r := rng.New(9)
	a := unitDictionary(r, 12, 10)
	bc := NewBatchCoder(a)
	col := make([]float64, 12)
	for j := 0; j < a.Cols; j++ {
		a.Col(j, col)
		res := bc.Encode(col, 1e-9, 0, nil)
		if res.Iters != 1 || res.Idx[0] != j {
			t.Fatalf("column %d coded with %v", j, res.Idx)
		}
		if math.Abs(res.Coef[0]-1) > 1e-9 {
			t.Fatalf("column %d coef %v, want 1", j, res.Coef[0])
		}
	}
}

func BenchmarkReferenceEncode(b *testing.B) {
	r := rng.New(1)
	d := unitDictionary(r, 64, 256)
	sig := make([]float64, 64)
	for i := range sig {
		sig[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Encode(d, sig, 0.1, 0)
	}
}

func BenchmarkBatchEncode(b *testing.B) {
	r := rng.New(1)
	d := unitDictionary(r, 64, 256)
	bc := NewBatchCoder(d)
	ws := &Workspace{}
	sig := make([]float64, 64)
	for i := range sig {
		sig[i] = r.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bc.Encode(sig, 0.1, 0, ws)
	}
}
