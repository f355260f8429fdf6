package exd

import (
	"math"
	"testing"

	"extdict/internal/dataset"
	"extdict/internal/mat"
	"extdict/internal/rng"
)

// testUnion generates a small union-of-subspaces dataset for the tests.
func testUnion(t testing.TB, m, n int, ks []int, seed uint64) *dataset.Union {
	t.Helper()
	u, err := dataset.GenerateUnion(dataset.UnionParams{M: m, N: n, Ks: ks}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return u
}

func TestFitValidation(t *testing.T) {
	u := testUnion(t, 16, 40, []int{3}, 1)
	if _, err := Fit(u.A, Params{L: 0, Epsilon: 0.1}); err == nil {
		t.Fatal("L=0 accepted")
	}
	if _, err := Fit(u.A, Params{L: 41, Epsilon: 0.1}); err == nil {
		t.Fatal("L>N accepted")
	}
	if _, err := Fit(u.A, Params{L: 10, Epsilon: -0.1}); err == nil {
		t.Fatal("negative epsilon accepted")
	}
	if _, err := Fit(u.A, Params{L: 10, Epsilon: 1.0}); err == nil {
		t.Fatal("epsilon=1 accepted")
	}
}

func TestFitShapesAndDictionaryColumns(t *testing.T) {
	u := testUnion(t, 20, 80, []int{3, 4}, 2)
	tr, err := Fit(u.A, Params{L: 30, Epsilon: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if tr.D.Rows != 20 || tr.D.Cols != 30 {
		t.Fatalf("D shape %dx%d", tr.D.Rows, tr.D.Cols)
	}
	if tr.C.Rows != 30 || tr.C.Cols != 80 {
		t.Fatalf("C shape %dx%d", tr.C.Rows, tr.C.Cols)
	}
	if len(tr.DictIdx) != 30 {
		t.Fatal("DictIdx length wrong")
	}
	// Dictionary columns must be actual columns of A.
	for k, j := range tr.DictIdx {
		for i := 0; i < 20; i++ {
			if tr.D.At(i, k) != u.A.At(i, j) {
				t.Fatalf("dictionary atom %d is not column %d of A", k, j)
			}
		}
	}
}

func TestFitMeetsErrorTolerance(t *testing.T) {
	u := testUnion(t, 24, 120, []int{3, 4, 5}, 3)
	for _, eps := range []float64{0.2, 0.1, 0.05, 0.01} {
		tr, err := Fit(u.A, Params{L: 60, Epsilon: eps, Seed: 7, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got := tr.RelError(u.A); got > eps+1e-9 {
			t.Fatalf("eps=%v: achieved error %v", eps, got)
		}
	}
}

func TestFitDeterministicInSeed(t *testing.T) {
	u := testUnion(t, 16, 60, []int{4}, 4)
	a, _ := Fit(u.A, Params{L: 20, Epsilon: 0.1, Seed: 9})
	b, _ := Fit(u.A, Params{L: 20, Epsilon: 0.1, Seed: 9})
	if a.C.NNZ() != b.C.NNZ() || a.Alpha() != b.Alpha() {
		t.Fatal("same seed produced different transforms")
	}
	for i := range a.DictIdx {
		if a.DictIdx[i] != b.DictIdx[i] {
			t.Fatal("same seed sampled different dictionaries")
		}
	}
}

func TestWorkerCountDoesNotChangeResult(t *testing.T) {
	u := testUnion(t, 20, 70, []int{3, 3}, 5)
	p := Params{L: 25, Epsilon: 0.08, Seed: 11}
	single, _ := Fit(u.A, p)
	p.Workers = 4
	multi, _ := Fit(u.A, p)
	if single.C.NNZ() != multi.C.NNZ() {
		t.Fatal("parallel coding changed nnz")
	}
	for j := 0; j <= u.A.Cols; j++ {
		if single.C.ColPtr[j] != multi.C.ColPtr[j] {
			t.Fatal("parallel coding changed column structure")
		}
	}
	for i := range single.C.Val {
		if single.C.RowIdx[i] != multi.C.RowIdx[i] ||
			math.Abs(single.C.Val[i]-multi.C.Val[i]) > 1e-12 {
			t.Fatal("parallel coding changed values")
		}
	}
}

func TestAlphaDecreasesWithL(t *testing.T) {
	// The core ExD tunability property (Fig. 4/5): on union-of-subspace
	// data, α(L) is (weakly) decreasing for L above L_min.
	u := testUnion(t, 32, 300, []int{4, 5, 6}, 6)
	var prev float64 = math.Inf(1)
	for _, l := range []int{60, 120, 200, 290} {
		tr, err := Fit(u.A, Params{L: l, Epsilon: 0.05, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		a := tr.Alpha()
		if a > prev*1.15 { // allow mild sampling noise
			t.Fatalf("alpha increased with L: %v -> %v at L=%d", prev, a, l)
		}
		if a < prev {
			prev = a
		}
	}
}

func TestAlphaLooseEpsilonSparser(t *testing.T) {
	// Second tunability axis (Fig. 5): looser ε gives sparser C.
	u := testUnion(t, 32, 200, []int{5, 6}, 7)
	tight, _ := Fit(u.A, Params{L: 100, Epsilon: 0.01, Seed: 17})
	loose, _ := Fit(u.A, Params{L: 100, Epsilon: 0.2, Seed: 17})
	if loose.Alpha() > tight.Alpha() {
		t.Fatalf("loose eps denser: %v vs %v", loose.Alpha(), tight.Alpha())
	}
}

func TestAlphaBoundedBySubspaceDimension(t *testing.T) {
	// §V-B guarantee: columns on a K-dimensional subspace admit K-sparse
	// codes once the dictionary covers the subspace. With generous L,
	// average sparsity must not exceed max(K) by much.
	ks := []int{3, 4}
	u := testUnion(t, 24, 240, ks, 8)
	tr, err := Fit(u.A, Params{L: 160, Epsilon: 0.02, Seed: 19})
	if err != nil {
		t.Fatal(err)
	}
	maxK := 4.0
	if a := tr.Alpha(); a > maxK+1 {
		t.Fatalf("alpha %v far above max subspace dimension %v", a, maxK)
	}
}

func TestFullDictionaryIdentityCodes(t *testing.T) {
	// L = N ⇒ D = A (up to permutation) ⇒ α = 1 (paper §VII).
	u := testUnion(t, 16, 40, []int{3}, 9)
	tr, err := Fit(u.A, Params{L: 40, Epsilon: 1e-9, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if a := tr.Alpha(); math.Abs(a-1) > 1e-9 {
		t.Fatalf("alpha with full dictionary = %v, want 1", a)
	}
}

// reconstruct materializes D·C as a dense matrix, one column of D·C at a
// time; production paths never form it.
func reconstruct(t *Transform) *mat.Dense {
	out := mat.NewDense(t.D.Rows, t.C.Cols)
	col := make([]float64, t.D.Rows)
	for j := 0; j < t.C.Cols; j++ {
		mat.Zero(col)
		for ptr := t.C.ColPtr[j]; ptr < t.C.ColPtr[j+1]; ptr++ {
			atom, v := t.C.RowIdx[ptr], t.C.Val[ptr]
			for i := range col {
				col[i] += v * t.D.At(i, atom)
			}
		}
		out.SetCol(j, col)
	}
	return out
}

func TestReconstructMatchesRelError(t *testing.T) {
	u := testUnion(t, 18, 50, []int{4}, 10)
	tr, _ := Fit(u.A, Params{L: 25, Epsilon: 0.1, Seed: 23})
	diff := reconstruct(tr)
	mat.SubVec(diff.Data, diff.Data, u.A.Data)
	want := mat.Norm2(diff.Data) / mat.Norm2(u.A.Data)
	if got := tr.RelError(u.A); math.Abs(got-want) > 1e-10 {
		t.Fatalf("RelError %v, dense check %v", got, want)
	}
}

// serialRelError is RelError as a plain loop over A's columns: rebuild
// column j of D·C entry by entry, then add its terms to the two sums in row
// order. RelError's parallel rebuild must reproduce it bit for bit.
func serialRelError(tr *Transform, a *mat.Dense) float64 {
	var num, den float64
	rec := make([]float64, a.Rows)
	col := make([]float64, a.Rows)
	for j := 0; j < a.Cols; j++ {
		mat.Zero(rec)
		for ptr := tr.C.ColPtr[j]; ptr < tr.C.ColPtr[j+1]; ptr++ {
			atom, v := tr.C.RowIdx[ptr], tr.C.Val[ptr]
			for i := 0; i < a.Rows; i++ {
				rec[i] += v * tr.D.At(i, atom)
			}
		}
		a.Col(j, col)
		for i := range col {
			dlt := col[i] - rec[i]
			num += dlt * dlt
			den += col[i] * col[i]
		}
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}

func TestRelErrorMatchesSerialLoop(t *testing.T) {
	// RelError rebuilds blocks of columns in parallel and adds their terms
	// serially; at any worker count it must equal the plain loop bit for
	// bit, since fig4's pinned errors and the ε verdicts rest on it. The
	// shape spans more blocks than the ring holds, so slots are reused,
	// with a short last one (M mod 4 = 2, so the Axpys run their scalar
	// tail too).
	u := testUnion(t, 130, 1200, []int{6, 9}, 12)
	tr, err := Fit(u.A, Params{L: 90, Epsilon: 0.1, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	if block := relErrorBlock(u.A.Rows, u.A.Cols); u.A.Cols <= relErrorRing*block || u.A.Cols%block == 0 {
		t.Fatalf("%d columns in blocks of %d: want several blocks and a short last one", u.A.Cols, block)
	}
	want := serialRelError(tr, u.A)
	defer func(w int) { mat.Workers = w }(mat.Workers)
	for _, w := range []int{1, 2, 3} {
		mat.Workers = w
		if got := tr.RelError(u.A); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Workers=%d: RelError %v, serial loop %v", w, got, want)
		}
	}
}

func TestMemoryWords(t *testing.T) {
	u := testUnion(t, 10, 30, []int{2}, 11)
	tr, _ := Fit(u.A, Params{L: 12, Epsilon: 0.1, Seed: 25})
	want := 10*12 + 2*tr.C.NNZ() + 30 + 1
	if got := tr.MemoryWords(); got != want {
		t.Fatalf("MemoryWords = %d, want %d", got, want)
	}
}

func TestExtendFastPath(t *testing.T) {
	// New columns drawn from the same subspaces: the dictionary already
	// spans them, so no growth should occur.
	p := dataset.UnionParams{M: 24, N: 200, Ks: []int{3, 4}}
	u, _ := dataset.GenerateUnion(p, rng.New(31))
	base := u.Subset(seqInts(0, 150))
	extra := u.Subset(seqInts(150, 200))

	tr, err := Fit(base.A, Params{L: 90, Epsilon: 0.08, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	l0 := tr.L()
	res, err := tr.Extend(extra.A, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.DictGrown {
		t.Fatalf("dictionary grew although data is in-span (failed=%d)", res.FailedColumns)
	}
	if tr.L() != l0 || tr.N() != 200 {
		t.Fatalf("shape after extend: L=%d N=%d", tr.L(), tr.N())
	}
	// Whole updated transform must satisfy the tolerance on [base extra].
	if got := tr.RelError(u.A); got > 0.08+1e-9 {
		t.Fatalf("error after extend %v", got)
	}
}

func TestExtendGrowthPath(t *testing.T) {
	// New columns from unseen subspaces force dictionary growth and the
	// Fig. 3 zero-padding layout.
	r := rng.New(33)
	uOld, _ := dataset.GenerateUnion(dataset.UnionParams{M: 30, N: 120, Ks: []int{3}}, r)
	uNew, _ := dataset.GenerateUnion(dataset.UnionParams{M: 30, N: 60, Ks: []int{5}}, r)

	tr, err := Fit(uOld.A, Params{L: 60, Epsilon: 0.05, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	l0, n0 := tr.L(), tr.N()
	res, err := tr.Extend(uNew.A, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !res.DictGrown || res.AddedAtoms == 0 {
		t.Fatalf("expected growth, got %+v", res)
	}
	if tr.L() != l0+res.AddedAtoms || tr.N() != n0+60 {
		t.Fatalf("post-growth shapes L=%d N=%d", tr.L(), tr.N())
	}
	if err := tr.C.Check(); err != nil {
		t.Fatal(err)
	}
	// Old columns must not reference new atoms (upper-right zero block).
	for j := 0; j < n0; j++ {
		for p := tr.C.ColPtr[j]; p < tr.C.ColPtr[j+1]; p++ {
			if tr.C.RowIdx[p] >= l0 {
				t.Fatal("old column references a new atom")
			}
		}
	}
	// New atoms flagged in DictIdx.
	for k := l0; k < tr.L(); k++ {
		if tr.DictIdx[k] != -1 {
			t.Fatal("appended atom not flagged with -1")
		}
	}
	// Combined transform meets tolerance on the combined data.
	combined := mat.NewDense(30, 180)
	for i := 0; i < 30; i++ {
		copy(combined.Row(i)[:120], uOld.A.Row(i))
		copy(combined.Row(i)[120:], uNew.A.Row(i))
	}
	if got := tr.RelError(combined); got > 0.05+1e-9 {
		t.Fatalf("combined error %v", got)
	}
}

func TestExtendShapeMismatch(t *testing.T) {
	u := testUnion(t, 12, 40, []int{2}, 12)
	tr, _ := Fit(u.A, Params{L: 15, Epsilon: 0.1, Seed: 35})
	bad := mat.NewDense(13, 5)
	if _, err := tr.Extend(bad, 0); err == nil {
		t.Fatal("row mismatch accepted")
	}
	if res, err := tr.Extend(mat.NewDense(12, 0), 0); err != nil || res.NewColumns != 0 {
		t.Fatal("empty extend mishandled")
	}
}

func seqInts(lo, hi int) []int {
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

func BenchmarkFitSalinasSmall(b *testing.B) {
	p, _ := dataset.Preset("salinas", 0.25)
	u, err := dataset.GenerateUnion(p, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fit(u.A, Params{L: 200, Epsilon: 0.1, Seed: 1, Workers: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// blockRelError is RelError as it stood before its sum overlapped the
// rebuilding: blocks of relErrorWords/M columns, each rebuilt across
// mat.Workers chunks and then summed by the caller while the pool waits.
func blockRelError(t *Transform, a *mat.Dense) float64 {
	m := a.Rows
	dt := t.D.T()
	block := max(1, min(a.Cols, relErrorWords/m))
	dev := make([]float64, block*m)
	sq := make([]float64, block*m)
	var num, den float64
	for j0 := 0; j0 < a.Cols; j0 += block {
		n := min(block, a.Cols-j0)
		mat.ParallelChunks(n, mat.Workers, func(_, lo, hi int) {
			t.errorTerms(a, dt, j0+lo, j0+hi, dev[lo*m:hi*m], sq[lo*m:hi*m])
		})
		for k := 0; k < n*m; k++ {
			num += dev[k]
			den += sq[k]
		}
	}
	if den == 0 {
		return 0
	}
	return math.Sqrt(num / den)
}

// relErrorSink keeps the benchmarked errors live.
var relErrorSink float64

// BenchmarkRelError times the ε check on cancercell-shaped data (M = 128,
// N = 4096) for a fitted L = 47 transform, at the default worker count,
// beside the block-by-block loop it replaced.
func BenchmarkRelError(b *testing.B) {
	p, err := dataset.Preset("cancercell", 0.25)
	if err != nil {
		b.Fatal(err)
	}
	u, err := dataset.GenerateUnion(p, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := Fit(u.A, Params{L: 47, Epsilon: 0.1, Workers: mat.Workers, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	if got, want := tr.RelError(u.A), blockRelError(tr, u.A); math.Float64bits(got) != math.Float64bits(want) {
		b.Fatalf("RelError %v, block loop %v", got, want)
	}
	for _, c := range []struct {
		name string
		f    func(*Transform, *mat.Dense) float64
	}{{"pipelined", (*Transform).RelError}, {"blocks", blockRelError}} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				relErrorSink = c.f(tr, u.A)
			}
		})
	}
}
