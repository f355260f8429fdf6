package omp

import (
	"math"
	"sync"
	"sync/atomic"

	"extdict/internal/mat"
	"extdict/internal/sparse"
)

// gramPrecomputeLimit is the dictionary size above which the full L×L Gram
// matrix (O(L²) memory) is replaced by lazily computed, cached rows. With
// over-complete dictionaries L can approach N, where a dense Gram matrix
// would need O(N²) storage — the exact blow-up ExtDict exists to avoid.
// It is a variable only so tests can exercise the lazy path cheaply.
var gramPrecomputeLimit = 2048

// maxLazyCacheFloats bounds the lazy row cache (~256 MB of float64s). Rows
// beyond the budget are recomputed on demand instead of cached. A variable
// for the same testing reason.
var maxLazyCacheFloats = 1 << 25

// BatchCoder codes many signals against one fixed dictionary using Batch-OMP
// with progressive Cholesky updates (Rubinstein, Zibulevsky & Elad 2008).
//
// For moderate dictionaries the setup precomputes the Gram matrix G = DᵀD
// (O(M·L²)); for very large ones Gram rows are computed on first use and
// cached under a memory budget. Each signal then costs O(M·L) for the
// initial correlations plus O(k·L + k²) for the iteration that selects its
// (k+1)-th atom, and never touches the residual vector: its norm is tracked
// by the recurrence ‖r‖² = ‖a‖² - γᵀ(Dᵀa)_φ.
type BatchCoder struct {
	D *mat.Dense // M×L dictionary

	g *mat.Dense // L×L Gram matrix when L ≤ gramPrecomputeLimit, else nil

	mu       sync.Mutex
	lazyRows [][]float64 // cached Gram rows when g == nil
	cached   int         // floats currently cached

	// spare holds the idle workspaces EncodePanel lends to its chunks. It
	// grows to the peak number of chunks coding at once and never shrinks,
	// so a warm panel allocates nothing but its results.
	spareMu sync.Mutex
	spare   []*Workspace
}

// NewBatchCoder prepares the Gram structures for d.
func NewBatchCoder(d *mat.Dense) *BatchCoder {
	bc := &BatchCoder{D: d}
	if d.Cols <= gramPrecomputeLimit {
		bc.g = mat.ParATA(d)
	} else {
		bc.lazyRows = make([][]float64, d.Cols)
	}
	return bc
}

// gramRow returns row j of DᵀD. The returned slice is shared and read-only.
func (bc *BatchCoder) gramRow(j int) []float64 {
	if bc.g != nil {
		return bc.g.Row(j)
	}
	bc.mu.Lock()
	if r := bc.lazyRows[j]; r != nil {
		bc.mu.Unlock()
		return r
	}
	bc.mu.Unlock()

	// Compute outside the lock; concurrent duplicate computation is
	// harmless (identical results) and rare.
	col := bc.D.Col(j, nil)
	row := bc.D.MulVecT(col, nil)

	bc.mu.Lock()
	if bc.lazyRows[j] == nil && bc.cached+len(row) <= maxLazyCacheFloats {
		bc.lazyRows[j] = row
		bc.cached += len(row)
	}
	bc.mu.Unlock()
	return row
}

// Workspace holds per-goroutine scratch so concurrent Encode calls do not
// allocate per signal. A zero Workspace is ready to use.
type Workspace struct {
	alpha0   []float64   // Dᵀa, fixed per signal
	alpha    []float64   // Dᵀr, updated per iteration; selected atoms hold +0
	gammaRHS []float64   // (Dᵀa)_φ in selection order
	fwd      []float64   // L⁻¹(Dᵀa)_φ, one entry longer per iteration
	gamma    []float64   // current coefficients
	cross    []float64   // Gram cross-correlations of the newest atom
	idx      []int       // selected atoms in selection order
	rows     [][]float64 // Gram rows of the selected atoms, selection order
	// The α refresh's terms: -γᵢ and Gram row i for every nonzero γᵢ, in
	// selection order.
	negGamma []float64
	live     [][]float64
	chol     *mat.Cholesky

	// The panel EncodeColumnsAt codes: up to panelWidth gathered signals,
	// one per row, and their correlations α⁰ = Dᵀa, one per row.
	sig, sigAlpha0 mat.Dense
}

func (w *Workspace) reset(l, maxAtoms int) {
	if cap(w.alpha0) < l {
		w.alpha0 = make([]float64, l)
		w.alpha = make([]float64, l)
	}
	w.alpha0 = w.alpha0[:l]
	w.alpha = w.alpha[:l]
	// The per-atom buffers are capped by the support size; sizing them here
	// keeps the selection loop allocation-free (hotalloc).
	if cap(w.gammaRHS) < maxAtoms {
		w.gammaRHS = make([]float64, 0, maxAtoms)
		w.fwd = make([]float64, 0, maxAtoms)
		w.gamma = make([]float64, 0, maxAtoms)
		w.cross = make([]float64, maxAtoms)
		w.idx = make([]int, 0, maxAtoms)
		w.rows = make([][]float64, 0, maxAtoms)
		w.negGamma = make([]float64, maxAtoms)
		w.live = make([][]float64, maxAtoms)
	}
	w.gammaRHS = w.gammaRHS[:0]
	w.fwd = w.fwd[:0]
	w.idx = w.idx[:0]
	w.gamma = w.gamma[:0]
	w.rows = w.rows[:0]
	if w.chol == nil {
		w.chol = mat.NewCholesky(maxAtoms)
	}
	w.chol.Reset()
}

// atomCap resolves a support cap: 0, or one above min(M, L), means
// min(M, L).
func (bc *BatchCoder) atomCap(maxAtoms int) int {
	if k := min(bc.D.Rows, bc.D.Cols); maxAtoms <= 0 || maxAtoms > k {
		return k
	}
	return maxAtoms
}

// Encode codes signal a with relative tolerance tol and support cap
// maxAtoms (0 = min(M, L)). ws may be nil, in which case a temporary
// workspace is used.
func (bc *BatchCoder) Encode(a []float64, tol float64, maxAtoms int, ws *Workspace) Result {
	if len(a) != bc.D.Rows {
		panic("omp: signal length does not match dictionary rows")
	}
	maxAtoms = bc.atomCap(maxAtoms)
	if ws == nil {
		ws = &Workspace{}
	}
	ws.reset(bc.D.Cols, maxAtoms)
	bc.D.MulVecT(a, ws.alpha0)
	return bc.code(ws.alpha0, mat.Dot(a, a), tol, maxAtoms, ws)
}

// code runs the greedy selection for one signal a, given its squared norm
// norm2a = ‖a‖² and its correlations alpha0 = Dᵀa (read only); a zero
// signal gets an empty code. ws must be reset for (L, maxAtoms). It is the
// one coding loop: Encode and the panel path of EncodeColumnsAt differ only
// in how they obtain alpha0.
//
// An iteration with k atoms selected costs O(L) for the pick, O(k²) for
// the Cholesky append and the back-substitution, and one pass over α for
// its refresh: the forward half of the solve, L⁻¹(α⁰)_φ, is kept across
// iterations and gains one entry per atom.
func (bc *BatchCoder) code(alpha0 []float64, norm2a, tol float64, maxAtoms int, ws *Workspace) Result {
	if norm2a == 0 {
		return Result{}
	}
	m := bc.D.Rows
	res := Result{Norm2: norm2a}
	target2 := tol * tol * norm2a
	// The ‖r‖² recurrence subtracts sums that the unrolled kernels
	// accumulate in different orders (norm2a, α⁰, and the Gram diagonal
	// reassociate differently), so it bottoms out at O(M·u)·‖a‖² instead of
	// an exact 0. A tolerance below that rounding floor cannot be certified;
	// clamp the stop threshold so the full-dictionary identity case (paper
	// §VII: a_i = D·e_i ⇒ one unit atom) still terminates after one atom.
	if floor := 8 * 0x1p-52 * float64(m) * norm2a; target2 < floor {
		target2 = floor
	}

	// α starts equal to α⁰ because r₀ = a; the first refresh writes ws.alpha.
	alpha := alpha0
	res.Resid2 = norm2a
	for len(ws.idx) < maxAtoms && res.Resid2 > target2 {
		// Select the atom with the largest |Dᵀr| among unselected ones.
		best := pickAtom(alpha)
		if best < 0 {
			break
		}

		// Grow the Cholesky factor of G_φφ using only Gram entries.
		gRow := bc.gramRow(best)
		k := len(ws.idx)
		cross := ws.cross[:k]
		for i, jj := range ws.idx {
			cross[i] = gRow[jj]
		}
		if err := ws.chol.Append(cross, gRow[best]); err != nil {
			break
		}
		ws.idx = ws.idx[:k+1]
		ws.idx[k] = best
		ws.rows = ws.rows[:k+1]
		ws.rows[k] = gRow
		ws.gammaRHS = ws.gammaRHS[:k+1]
		ws.gammaRHS[k] = alpha0[best]

		// γ = (G_φφ)⁻¹ (α⁰)_φ = L⁻ᵀ·L⁻¹(α⁰)_φ. The factor's first k rows did
		// not change, so neither did the first k entries of L⁻¹(α⁰)_φ.
		ws.fwd = ws.fwd[:k+1]
		ws.fwd[k] = ws.chol.ForwardNext(ws.fwd[:k], alpha0[best])
		ws.gamma = ws.gamma[:k+1]
		copy(ws.gamma, ws.fwd)
		ws.chol.BackSolveInPlace(ws.gamma)

		// α = α⁰ - G[:, φ]·γ (residual correlations without the residual;
		// G is symmetric so the cached rows serve as columns), as the Axpys
		// α += (-γᵢ)·G[φᵢ, :] over the nonzero γᵢ in selection order would
		// leave it, in one pass. Selected atoms are then masked to +0, which
		// never wins the pick.
		live := 0
		for i, gi := range ws.gamma {
			if gi != 0 {
				ws.negGamma[live] = -gi
				ws.live[live] = ws.rows[i]
				live++
			}
		}
		mat.AxpyRowsTo(ws.alpha, alpha0, ws.negGamma[:live], ws.live[:live])
		alpha = ws.alpha
		for _, j := range ws.idx {
			alpha[j] = 0
		}

		// ‖r‖² = ‖a‖² - γᵀ(α⁰)_φ.
		res.Resid2 = norm2a - mat.Dot(ws.gamma, ws.gammaRHS)
		if res.Resid2 < 0 {
			res.Resid2 = 0 // rounding can push it slightly negative
		}
	}
	// Copy the code out at its exact length: the workspace sizes its
	// buffers for min(M, L) atoms, and a typical code uses a handful.
	k := len(ws.idx)
	res.Idx = make([]int, k)
	copy(res.Idx, ws.idx)
	res.Coef = mat.CopyVec(ws.gamma[:k])
	res.Iters = k
	return res
}

// infBits is the bit pattern of +Inf. A float's magnitude bits above it
// are a NaN's.
const infBits = 0x7ff0000000000000

// pickAtom returns the index of the largest |α[j]|, the first on ties, or
// -1 when no |α[j]| is above zero; a NaN never wins. It compares the
// magnitudes as IEEE bit patterns, which order non-negative floats as their
// values, with a NaN's pattern masked to +0's. Four lanes each keep the
// first index of their maximum, so the loop carries four short dependency
// chains and no data-dependent branch: the compiler turns each comparison
// into conditional moves, and a new leader costs no misprediction.
func pickAtom(alpha []float64) int {
	var m0, m1, m2, m3 uint64
	i0, i1, i2, i3 := -1, -1, -1, -1
	j := 0
	for ; j+4 <= len(alpha); j += 4 {
		v := alpha[j : j+4 : j+4]
		b0, b1, b2, b3 := magBits(v[0]), magBits(v[1]), magBits(v[2]), magBits(v[3])
		if b0 > m0 {
			m0, i0 = b0, j
		}
		if b1 > m1 {
			m1, i1 = b1, j+1
		}
		if b2 > m2 {
			m2, i2 = b2, j+2
		}
		if b3 > m3 {
			m3, i3 = b3, j+3
		}
	}
	// The tail's indices exceed every lane's, so lane 0 keeps its first.
	for ; j < len(alpha); j++ {
		if b := magBits(alpha[j]); b > m0 {
			m0, i0 = b, j
		}
	}
	// The largest lane maximum wins, the smallest index among equal ones.
	for _, c := range [3]struct {
		m uint64
		i int
	}{{m1, i1}, {m2, i2}, {m3, i3}} {
		if c.m > m0 || c.m == m0 && c.i < i0 {
			m0, i0 = c.m, c.i
		}
	}
	if m0 == 0 {
		return -1
	}
	return i0
}

// magBits returns the bit pattern of |v|, or +0's (0) when v is a NaN.
func magBits(v float64) uint64 {
	b := math.Float64bits(v) &^ (1 << 63)
	if b > infBits {
		b = 0
	}
	return b
}

// EncodePanel codes an ad-hoc panel of signals — each cols[i] a length-M
// column — in parallel across `workers` chunks of the shared mat worker
// pool, returning one Result per column in input order. It is the serving
// layer's batch entry: the request batcher hands it whatever requests are
// queued, without copying the signals into a Dense first. Each chunk codes
// with a workspace borrowed from the coder's spare list, and Encode resets
// every field a code reads, so the results are bit-identical to coding the
// same columns one at a time, at any worker count.
func (bc *BatchCoder) EncodePanel(cols [][]float64, tol float64, maxAtoms, workers int) []Result {
	out := make([]Result, len(cols))
	if len(cols) == 0 {
		return out
	}
	workers = max(1, min(workers, len(cols)))
	ws := bc.borrow(workers)
	mat.ParallelChunks(len(cols), workers, func(c, lo, hi int) {
		for j := lo; j < hi; j++ {
			out[j] = bc.Encode(cols[j], tol, maxAtoms, ws[c])
		}
	})
	bc.giveBack(ws)
	return out
}

// borrow takes n workspaces off the spare list, making fresh ones when the
// list runs short. The caller owns them until giveBack.
func (bc *BatchCoder) borrow(n int) []*Workspace {
	ws := make([]*Workspace, n)
	bc.spareMu.Lock()
	k := copy(ws, bc.spare[max(0, len(bc.spare)-n):])
	bc.spare = bc.spare[:len(bc.spare)-k]
	bc.spareMu.Unlock()
	for i := k; i < n; i++ {
		ws[i] = &Workspace{}
	}
	return ws
}

// giveBack returns borrowed workspaces to the spare list.
func (bc *BatchCoder) giveBack(ws []*Workspace) {
	bc.spareMu.Lock()
	bc.spare = append(bc.spare, ws...)
	bc.spareMu.Unlock()
}

// EncodeColumns codes every column of a (M×N) in parallel across `workers`
// chunks of the shared mat worker pool and assembles the coefficient matrix
// C (L×N) such that A ≈ D·C. It returns C and the total number of OMP
// iterations performed (used by the preprocessing-overhead accounting).
// Columns are coded independently, so the result does not depend on the
// worker count.
func (bc *BatchCoder) EncodeColumns(a *mat.Dense, tol float64, maxAtoms, workers int) (*sparse.CSC, int) {
	all := make([]int, a.Cols)
	for j := range all {
		all[j] = j
	}
	codes := make([]Result, a.Cols)
	bc.EncodeColumnsAt(a, all, tol, maxAtoms, workers, codes)
	return Assemble(bc.D.Cols, codes)
}

// panelWidth is the number of columns EncodeColumnsAt gathers into one
// panel. A is row-major, so a lone column is M reads one row stride apart,
// each on a cache line of its own; a panel of neighbouring columns reads
// every line once for all of them. At M = 128 a panel is 32 KiB, about an
// L1's worth, while MulTo forms its correlations in one pass over D.
const panelWidth = 32

// EncodeColumnsAt codes the columns of a (M×N) listed in cols in parallel
// across `workers` chunks of the shared mat worker pool. Column j's code
// lands in codes[j], so codes spans all N columns and the slots of unlisted
// columns are left as they are: a caller can code A in installments and
// Assemble the whole.
//
// A is row-major, so the listed columns are coded in ascending index order,
// in panels of up to panelWidth: a panel is copied out of A with
// row-contiguous reads, and its correlations α⁰ = Dᵀa come from one
// mat.MulTo, whose rows equal Dense.MulVecT's bit for bit. The chunks claim
// panels one at a time from a shared counter, so a chunk that draws sparse
// columns takes more panels instead of idling. Columns are coded
// independently, so a code is Encode's for that column, whatever the
// worker count, the scheduling, the listing order, or the other listed
// columns.
func (bc *BatchCoder) EncodeColumnsAt(a *mat.Dense, cols []int, tol float64, maxAtoms, workers int, codes []Result) {
	if len(codes) != a.Cols {
		panic("omp: codes length does not match the data columns")
	}
	if a.Rows != bc.D.Rows {
		panic("omp: signal length does not match dictionary rows")
	}
	listed := make([]bool, a.Cols)
	for _, j := range cols {
		listed[j] = true
	}
	order := make([]int, 0, len(cols))
	for j, ok := range listed {
		if ok {
			order = append(order, j)
		}
	}
	maxAtoms = bc.atomCap(maxAtoms)
	panels := (len(order) + panelWidth - 1) / panelWidth
	workers = max(1, min(workers, panels))
	ws := bc.borrow(workers)
	var next atomic.Int64
	mat.ParallelChunks(workers, workers, func(c, _, _ int) {
		for p := int(next.Add(1) - 1); p < panels; p = int(next.Add(1) - 1) {
			bc.codePanel(a, order[p*panelWidth:min((p+1)*panelWidth, len(order))], tol, maxAtoms, ws[c], codes)
		}
	})
	bc.giveBack(ws)
}

// codePanel codes the listed columns of a (at most panelWidth, ascending)
// into codes: it gathers them row by row into ws.sig, one signal per row,
// forms every α⁰ in one MulTo, and runs the greedy loop per signal.
func (bc *BatchCoder) codePanel(a *mat.Dense, cols []int, tol float64, maxAtoms int, ws *Workspace, codes []Result) {
	m, l, n := bc.D.Rows, bc.D.Cols, len(cols)
	sig, alpha0 := ws.panel(n, m, l)
	for i := 0; i < m; i++ {
		row := a.Row(i)
		for k, j := range cols {
			sig.Data[k*m+i] = row[j]
		}
	}
	mat.MulTo(alpha0, sig, bc.D)
	for k, j := range cols {
		s := sig.Row(k)
		ws.reset(l, maxAtoms)
		codes[j] = bc.code(alpha0.Row(k), mat.Dot(s, s), tol, maxAtoms, ws)
	}
}

// panel returns ws's n×m signal panel and n×l correlation panel, growing
// their storage to panelWidth rows on first use.
func (w *Workspace) panel(n, m, l int) (sig, alpha0 *mat.Dense) {
	if cap(w.sig.Data) < panelWidth*m || cap(w.sigAlpha0.Data) < panelWidth*l {
		w.sig.Data = make([]float64, panelWidth*m)
		w.sigAlpha0.Data = make([]float64, panelWidth*l)
	}
	w.sig = mat.Dense{Rows: n, Cols: m, Stride: m, Data: w.sig.Data[:n*m]}
	w.sigAlpha0 = mat.Dense{Rows: n, Cols: l, Stride: l, Data: w.sigAlpha0.Data[:n*l]}
	return &w.sig, &w.sigAlpha0
}

// Assemble gathers per-column codes (codes[j] is column j's) into the L×N
// coefficient matrix C and returns it with the total number of OMP
// iterations the codes took. The columns are sorted and copied in parallel
// (sparse.BuildColumns); C is the matrix a sparse.Builder fed the codes in
// column order would build.
func Assemble(l int, codes []Result) (*sparse.CSC, int) {
	total := 0
	for _, r := range codes {
		total += r.Iters
	}
	c := sparse.BuildColumns(l, len(codes), func(j int) ([]int, []float64) {
		return codes[j].Idx, codes[j].Coef
	})
	return c, total
}
