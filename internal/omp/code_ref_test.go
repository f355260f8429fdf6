package omp

import (
	"fmt"
	"math"
	"testing"

	"extdict/internal/dataset"
	"extdict/internal/mat"
	"extdict/internal/rng"
)

// refWorkspace is the scratch refCode reuses across signals, as Workspace
// was before each iteration did only new work.
type refWorkspace struct {
	alpha, gammaRHS, gamma, cross []float64
	idx                           []int
	selected                      []bool
	rows                          [][]float64
	chol                          *mat.Cholesky
}

func (w *refWorkspace) reset(l, maxAtoms int) {
	if cap(w.alpha) < l {
		w.alpha = make([]float64, l)
		w.selected = make([]bool, l)
	}
	w.alpha, w.selected = w.alpha[:l], w.selected[:l]
	for i := range w.selected {
		w.selected[i] = false
	}
	if cap(w.gammaRHS) < maxAtoms {
		w.gammaRHS = make([]float64, 0, maxAtoms)
		w.gamma = make([]float64, 0, maxAtoms)
		w.cross = make([]float64, maxAtoms)
		w.idx = make([]int, 0, maxAtoms)
		w.rows = make([][]float64, 0, maxAtoms)
	}
	w.gammaRHS, w.gamma, w.idx, w.rows = w.gammaRHS[:0], w.gamma[:0], w.idx[:0], w.rows[:0]
	if w.chol == nil {
		w.chol = mat.NewCholesky(maxAtoms)
	}
	w.chol.Reset()
}

// refCode is the greedy loop as it stood before each iteration did only
// new work: the branchy argmax over unselected atoms, SolveInPlace's full
// forward and backward halves, and one Axpy pass over α per nonzero γᵢ.
// It returns the code and leaves its final α in ws.alpha. The pins below
// hold code to it bit for bit.
func refCode(bc *BatchCoder, alpha0 []float64, norm2a, tol float64, maxAtoms int, ws *refWorkspace) Result {
	ws.reset(bc.D.Cols, maxAtoms)
	if norm2a == 0 {
		return Result{}
	}
	m, l := bc.D.Rows, bc.D.Cols
	res := Result{Norm2: norm2a}
	target2 := tol * tol * norm2a
	if floor := 8 * 0x1p-52 * float64(m) * norm2a; target2 < floor {
		target2 = floor
	}
	copy(ws.alpha, alpha0)
	res.Resid2 = norm2a
	for len(ws.idx) < maxAtoms && res.Resid2 > target2 {
		best, bestAbs := -1, 0.0
		for j := 0; j < l; j++ {
			if ws.selected[j] {
				continue
			}
			if ca := math.Abs(ws.alpha[j]); ca > bestAbs {
				best, bestAbs = j, ca
			}
		}
		if best < 0 || bestAbs == 0 {
			break
		}
		gRow := bc.gramRow(best)
		k := len(ws.idx)
		cross := ws.cross[:k]
		for i, jj := range ws.idx {
			cross[i] = gRow[jj]
		}
		if err := ws.chol.Append(cross, gRow[best]); err != nil {
			break
		}
		ws.selected[best] = true
		ws.idx = append(ws.idx, best)
		ws.rows = append(ws.rows, gRow)
		ws.gammaRHS = append(ws.gammaRHS, alpha0[best])
		ws.gamma = ws.gamma[:k+1]
		copy(ws.gamma, ws.gammaRHS)
		ws.chol.SolveInPlace(ws.gamma)
		copy(ws.alpha, alpha0)
		for i := range ws.idx {
			gi := ws.gamma[i]
			if gi == 0 {
				continue
			}
			mat.Axpy(-gi, ws.rows[i][:l], ws.alpha)
		}
		res.Resid2 = norm2a - mat.Dot(ws.gamma, ws.gammaRHS)
		if res.Resid2 < 0 {
			res.Resid2 = 0
		}
	}
	k := len(ws.idx)
	res.Idx = make([]int, k)
	copy(res.Idx, ws.idx)
	res.Coef = mat.CopyVec(ws.gamma[:k])
	res.Iters = k
	return res
}

// checkCode codes (alpha0, norm2a) with code on ws and with refCode, and
// fails unless the codes agree bit for bit and code's final α is the
// reference's at every unselected atom (both NaN counts as equal there:
// α feeds only the pick, where a NaN never wins).
func checkCode(t testing.TB, what string, bc *BatchCoder, alpha0 []float64, norm2a, tol float64, maxAtoms int, ws *Workspace) {
	t.Helper()
	maxAtoms = bc.atomCap(maxAtoms)
	ref := &refWorkspace{}
	want := refCode(bc, alpha0, norm2a, tol, maxAtoms, ref)
	wantAlpha := ref.alpha
	ws.reset(bc.D.Cols, maxAtoms)
	copy(ws.alpha0, alpha0)
	got := bc.code(ws.alpha0, norm2a, tol, maxAtoms, ws)
	if diff := codeDiff(got, want); diff != "" {
		t.Fatalf("%s (tol %v, cap %d): %s", what, tol, maxAtoms, diff)
	}
	if got.Iters == 0 {
		return
	}
	selected := make([]bool, len(ws.alpha))
	for _, j := range got.Idx {
		selected[j] = true
	}
	for j, v := range ws.alpha {
		w := wantAlpha[j]
		switch {
		case selected[j]:
			if v != 0 {
				t.Fatalf("%s: selected atom %d holds α = %v, want +0", what, j, v)
			}
		case math.IsNaN(v) && math.IsNaN(w):
		case math.Float64bits(v) != math.Float64bits(w):
			t.Fatalf("%s (tol %v, cap %d): α[%d] = %v, reference %v", what, tol, maxAtoms, j, v, w)
		}
	}
}

// specialValues are the α⁰ entries and signal entries that reach the
// pick's and the solve's edge cases.
var specialValues = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	1e300, -1e300, 1e-300, -1e-300,
}

// codeInputs returns signals to code against d, each as (α⁰, ‖a‖²):
// random signals as Encode sees them; the same α⁰ with special values
// written into a few entries (the norm stays finite, so the loop runs
// over them); α⁰ with exact ties in |α|, copied or negated between
// entries; signals holding special values, as Encode sees them; and α⁰
// with a zero, NaN or infinite norm.
func codeInputs(r *rng.RNG, d *mat.Dense, n int) (alpha0s [][]float64, norms []float64) {
	add := func(alpha0 []float64, norm2 float64) {
		alpha0s = append(alpha0s, alpha0)
		norms = append(norms, norm2)
	}
	sig := make([]float64, d.Rows)
	for c := 0; c < n; c++ {
		for i := range sig {
			sig[i] = r.NormFloat64()
		}
		alpha0 := d.MulVecT(sig, nil)
		norm2 := mat.Dot(sig, sig)
		add(alpha0, norm2)

		special := mat.CopyVec(alpha0)
		for k := 0; k < 1+r.Intn(3); k++ {
			special[r.Intn(len(special))] = specialValues[r.Intn(len(specialValues))]
		}
		add(special, norm2)

		tied := mat.CopyVec(alpha0)
		for k := 0; k < 1+r.Intn(4); k++ {
			p, q := r.Intn(len(tied)), r.Intn(len(tied))
			tied[p] = tied[q]
			if r.Intn(2) == 0 {
				tied[p] = -tied[q]
			}
		}
		add(tied, norm2)

		for i := range sig {
			if r.Intn(3) == 0 {
				sig[i] = specialValues[r.Intn(len(specialValues))]
			}
		}
		add(d.MulVecT(sig, nil), mat.Dot(sig, sig))

		// A zero norm gives the empty code; a NaN or infinite one never
		// enters the loop.
		add(alpha0, []float64{0, math.NaN(), math.Inf(1)}[c%3])
	}
	return alpha0s, norms
}

func TestCodeMatchesReference(t *testing.T) {
	// code against the pre-rewrite loop, bit for bit: every Result field
	// and the final α, at L = 1, 5, 47, 78 and 256 (M = 128 over M = 12),
	// on the lazy-Gram path, on the degenerate dictionaries where Append
	// fails, with special values and ties in α⁰, at several tolerances, on
	// one reused workspace. Support caps: every one where min(M, L) ≤ 16; a
	// cap only cuts the same run of picks short, so the larger shapes take
	// a spread of them.
	r := rng.New(0xc0de)
	type dict struct {
		name string
		d    *mat.Dense
	}
	var dicts []dict
	for _, shape := range []struct{ m, l int }{{128, 1}, {128, 5}, {128, 47}, {128, 78}, {12, 47}, {128, 256}} {
		dicts = append(dicts, dict{fmt.Sprintf("%dx%d", shape.m, shape.l), unitDictionary(r, shape.m, shape.l)})
	}
	for _, nd := range degenerateDictionaries(r) {
		dicts = append(dicts, dict{nd.name, nd.d})
	}
	tols := []float64{0, 0.01, 0.1, 0.5, 1}
	groups := 3
	if testing.Short() {
		groups = 1
	}
	ws := &Workspace{}
	run := func(prefix string) {
		for _, dc := range dicts {
			bc := NewBatchCoder(dc.d)
			alpha0s, norms := codeInputs(r, dc.d, groups)
			k := min(dc.d.Rows, dc.d.Cols)
			caps := []int{0, k + 1}
			for c := 1; c <= k; c++ {
				if k <= 16 || c <= 3 || c == 8 || c == 21 || c == k {
					caps = append(caps, c)
				}
			}
			for i, alpha0 := range alpha0s {
				for _, tol := range tols {
					for _, c := range caps {
						checkCode(t, fmt.Sprintf("%s%s input %d", prefix, dc.name, i), bc, alpha0, norms[i], tol, c, ws)
					}
				}
			}
		}
	}
	run("")
	withLazyGram(t, 8, 40*128, func() { run("lazy ") })
}

// FuzzCodeMatchesReference codes a random dictionary's α⁰ with special
// values, ties and degenerate atoms written in by the fuzz bytes, and
// requires code and refCode to agree bit for bit. Each pair of bytes in
// edits is one edit: the first picks the kind, the second the place.
func FuzzCodeMatchesReference(f *testing.F) {
	f.Add(uint8(12), uint8(30), uint8(0), uint8(3), uint64(1), []byte{})
	f.Add(uint8(8), uint8(20), uint8(4), uint8(1), uint64(2), []byte{4, 3, 2, 9})
	f.Fuzz(func(t *testing.T, m, l, capSel, tolSel uint8, seed uint64, edits []byte) {
		rows, cols := 1+int(m)%24, 1+int(l)%72
		r := rng.New(seed)
		d := unitDictionary(r, rows, cols)
		sig := make([]float64, rows)
		for i := range sig {
			sig[i] = r.NormFloat64()
		}
		var alpha0 []float64
		for e := 0; e+1 < len(edits); e += 2 {
			kind, at := int(edits[e]), int(edits[e+1])
			switch j, q := at%cols, (at/cols)%cols; {
			case kind < len(specialValues) && alpha0 != nil:
				alpha0[j] = specialValues[kind]
			case kind < len(specialValues):
				sig[at%rows] = specialValues[kind]
			case kind%4 == 0 && alpha0 != nil:
				alpha0[j] = -alpha0[q] // a tie in |α⁰|
			case kind%4 == 1 && alpha0 == nil:
				d.SetCol(j, d.Col(q, nil)) // a duplicate atom
			case kind%4 == 2 && alpha0 == nil:
				d.SetCol(j, make([]float64, rows)) // a zero atom
			default:
				if alpha0 == nil {
					alpha0 = d.MulVecT(sig, nil) // later edits go to α⁰
				}
			}
		}
		if alpha0 == nil {
			alpha0 = d.MulVecT(sig, nil)
		}
		tol := []float64{0, 1e-6, 0.05, 0.1, 0.3, 1}[int(tolSel)%6]
		maxAtoms := int(capSel) % (min(rows, cols) + 2)
		checkCode(t, "fuzz", NewBatchCoder(d), alpha0, mat.Dot(sig, sig), tol, maxAtoms, &Workspace{})
	})
}

// codeSink keeps the benchmarked codes live.
var codeSink Result

// BenchmarkCode times the greedy loop alone, beside refCode, on
// cancercell-shaped data (M = 128, subspaces of dimension 8, 10 and 12)
// at ε = 0.1 with dictionaries of L = 47 and L = 256 sampled from the
// data: every signal's α⁰ and ‖a‖² are formed once, outside the timer.
func BenchmarkCode(b *testing.B) {
	p, err := dataset.Preset("cancercell", 1.0/32)
	if err != nil {
		b.Fatal(err)
	}
	u, err := dataset.GenerateUnion(p, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	a := u.A
	for _, l := range []int{47, 256} {
		d := a.ColSlice(rng.New(1).Subset(a.Cols, l))
		bc := NewBatchCoder(d)
		al := mat.NewDense(a.Cols, l)
		sig := a.T()
		mat.MulTo(al, sig, d)
		norms := make([]float64, a.Cols)
		for j := range norms {
			norms[j] = mat.Dot(sig.Row(j), sig.Row(j))
		}
		maxAtoms := bc.atomCap(0)
		ws, ref := &Workspace{}, &refWorkspace{}
		b.Run(fmt.Sprintf("L=%d/loop=current", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range norms {
					ws.reset(l, maxAtoms)
					codeSink = bc.code(al.Row(j), norms[j], 0.1, maxAtoms, ws)
				}
			}
		})
		b.Run(fmt.Sprintf("L=%d/loop=reference", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				for j := range norms {
					codeSink = refCode(bc, al.Row(j), norms[j], 0.1, maxAtoms, ref)
				}
			}
		})
	}
}
