package mat

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the default number of chunks the parallel kernels split their
// work into. It is a variable so tests can pin it: at a pinned value every
// parallel kernel here is deterministic run-to-run (fixed chunk boundaries,
// fixed merge order).
var Workers = runtime.GOMAXPROCS(0)

// parallelThreshold is the minimum problem size worth splitting; below it
// the chunk bookkeeping costs more than the work.
const parallelThreshold = 256

// ParallelChunks partitions [0, n) into exactly w balanced chunks — chunk c
// is [c·n/w, (c+1)·n/w), sizes differing by at most one — and runs
// body(c, lo, hi) once per chunk, covering every index exactly once. Chunks
// beyond the first are offered to the shared worker pool; chunk 0, and any
// chunk the pool is too busy to take, runs on the calling goroutine. w is
// clamped to [1, n]; the chunk boundaries depend only on (n, w), never on
// scheduling.
func ParallelChunks(n, w int, body func(c, lo, hi int)) {
	if n <= 0 {
		return
	}
	if w > n {
		w = n
	}
	if w <= 1 {
		body(0, 0, n)
		return
	}
	var wg sync.WaitGroup
	for c := 1; c < w; c++ {
		c, lo, hi := c, c*n/w, (c+1)*n/w
		wg.Add(1)
		if !trySubmit(func() { body(c, lo, hi) }, &wg) {
			body(c, lo, hi)
			wg.Done()
		}
	}
	body(0, 0, n/w)
	wg.Wait()
}

// Pipeline runs produce(i) for every i in [0, n) on the calling goroutine
// and up to w−1 pool workers, and consume(i) on the calling goroutine in
// increasing i, each once produce(i) has returned. Items are claimed one at
// a time from a shared counter, never ahead or more past the last item
// consumed, so a caller that keeps item i in slot i mod ahead never has a
// slot overwritten before it is consumed. While the next item to consume is
// still being produced, the caller produces later ones itself, or yields.
// The pool workers are taken once for the whole run, not once per item, so
// an item may be much shorter than a pool hand-off, and a worker that
// starts late takes fewer items instead of holding the caller up. What
// produce(i) computes must not depend on which goroutine runs it. With
// w ≤ 1 or ahead < 2 it is the serial loop produce(0), consume(0),
// produce(1), ….
func Pipeline(n, w, ahead int, produce, consume func(i int)) {
	if w > n {
		w = n
	}
	if w <= 1 || ahead < 2 {
		for i := 0; i < n; i++ {
			produce(i)
			consume(i)
		}
		return
	}
	p := &pipeline{n: int64(n), ahead: int64(ahead), produce: produce, done: make([]atomic.Bool, n)}
	var wg sync.WaitGroup
	for c := 1; c < w; c++ {
		wg.Add(1)
		if !trySubmit(p.work, &wg) {
			wg.Done() // the pool is busy: run with the helpers it gave
			break
		}
	}
	for i := 0; i < n; i++ {
		for !p.done[i].Load() {
			if !p.claim() {
				runtime.Gosched()
			}
		}
		consume(i)
		p.consumed.Store(int64(i + 1))
	}
	wg.Wait()
}

// pipeline is the state Pipeline's goroutines share.
type pipeline struct {
	n, ahead       int64
	next, consumed atomic.Int64 // items claimed; items consumed
	produce        func(i int)
	done           []atomic.Bool // done[i]: produce(i) has returned
}

// claim produces the next unclaimed item if it lies within ahead of the
// consumer, and reports whether it did.
func (p *pipeline) claim() bool {
	i := p.next.Load()
	if i >= p.n || i >= p.consumed.Load()+p.ahead || !p.next.CompareAndSwap(i, i+1) {
		return false
	}
	p.produce(int(i))
	p.done[i].Store(true)
	return true
}

// work is a pool worker's loop: claim items until every one is claimed,
// yielding while the consumer is a full window behind.
func (p *pipeline) work() {
	for p.next.Load() < p.n {
		if !p.claim() {
			runtime.Gosched()
		}
	}
}

// ParMulVec computes y = A·x with output rows split across the worker pool.
// Semantics match MulVec. Each y[i] is produced by exactly one chunk with the
// serial kernel, and chunk boundaries are rounded down to multiples of the
// mulVecBlock row blocking so every row lands in the same dot-kernel group
// it occupies serially — the result is deterministic at any worker count and
// matches MulVec to the last bit.
func (m *Dense) ParMulVec(x, y []float64) []float64 {
	if len(x) != m.Cols {
		panic("mat: ParMulVec dimension mismatch")
	}
	if y == nil {
		y = make([]float64, m.Rows)
	}
	if len(y) != m.Rows {
		panic("mat: ParMulVec output length mismatch")
	}
	n := m.Rows
	w := Workers
	if w <= 1 || n < parallelThreshold {
		mulVecRows(m, x, y, 0, n)
		return y
	}
	if w > n/mulVecBlock {
		w = n / mulVecBlock // keep every boundary block-aligned, chunks non-empty
	}
	align := func(r int) int { return r - r%mulVecBlock }
	var wg sync.WaitGroup
	for c := 1; c < w; c++ {
		lo, hi := align(c*n/w), align((c+1)*n/w)
		if c == w-1 {
			hi = n
		}
		wg.Add(1)
		if !trySubmit(func() { mulVecRows(m, x, y[lo:hi], lo, hi) }, &wg) {
			mulVecRows(m, x, y[lo:hi], lo, hi)
			wg.Done()
		}
	}
	hi0 := align(n / w)
	mulVecRows(m, x, y[:hi0], 0, hi0)
	wg.Wait()
	return y
}

// parMulVecTBufs recycles ParMulVecT's block partials.
var parMulVecTBufs = sync.Pool{New: func() any { return new([]float64) }}

// ParMulVecT computes y = Aᵀ·x with input rows split across the worker pool.
// Semantics match MulVecT. The rows are summed in fixed blocks of
// parallelThreshold (the last may be shorter), each block into its own
// partial with the serial kernel, and the partials are added in block
// order. The blocks depend only on the row count, so the result is the
// same bits at every worker count, 1 included. A matrix with fewer rows
// than one block takes MulVecT.
func (m *Dense) ParMulVecT(x, y []float64) []float64 {
	if len(x) != m.Rows {
		panic("mat: ParMulVecT dimension mismatch")
	}
	if y == nil {
		y = make([]float64, m.Cols)
	}
	if len(y) != m.Cols {
		panic("mat: ParMulVecT output length mismatch")
	}
	if m.Rows < parallelThreshold {
		return m.MulVecT(x, y)
	}
	blocks := (m.Rows + parallelThreshold - 1) / parallelThreshold
	bp := parMulVecTBufs.Get().(*[]float64)
	if cap(*bp) < blocks*m.Cols {
		*bp = make([]float64, blocks*m.Cols)
	}
	partials := (*bp)[:blocks*m.Cols]
	ParallelChunks(blocks, Workers, func(_, b0, b1 int) {
		for b := b0; b < b1; b++ {
			lo, hi := b*parallelThreshold, min((b+1)*parallelThreshold, m.Rows)
			p := partials[b*m.Cols : (b+1)*m.Cols]
			Zero(p)
			mulVecTRows(m, x[lo:hi], p, lo, hi)
		}
	})
	Zero(y)
	for b := 0; b < blocks; b++ {
		AddVec(y, y, partials[b*m.Cols:(b+1)*m.Cols])
	}
	parMulVecTBufs.Put(bp)
	return y
}

// ParATA computes G = AᵀA with the Gram matrix's rows split across the
// worker pool. Semantics match ATA. Each output element is owned by exactly
// one chunk and accumulated in the same order the serial ataPanel uses, so
// the result is deterministic at ANY worker count and bit-identical to ATA.
// Chunk boundaries are area-balanced over the upper triangle (row p costs
// n-p elements), depending only on (n, w).
func ParATA(a *Dense) *Dense {
	n := a.Cols
	g := NewDense(n, n)
	w := Workers
	if w > n {
		w = n
	}
	if w <= 1 || n < 64 || a.Rows*n < parallelThreshold*parallelThreshold {
		ataPanel(a, g, 0, n)
		mirrorLower(g)
		return g
	}
	bounds := ataChunkBounds(n, w)
	var wg sync.WaitGroup
	for c := 1; c < len(bounds)-1; c++ {
		lo, hi := bounds[c], bounds[c+1]
		if lo >= hi {
			continue
		}
		wg.Add(1)
		if !trySubmit(func() { ataPanel(a, g, lo, hi) }, &wg) {
			ataPanel(a, g, lo, hi)
			wg.Done()
		}
	}
	ataPanel(a, g, bounds[0], bounds[1])
	wg.Wait()
	mirrorLower(g)
	return g
}

// ataChunkBounds splits the rows of an n×n upper triangle into w contiguous
// chunks of roughly equal element count (row p holds n-p elements): boundary
// c sits where the triangle's area prefix reaches c/w. Deterministic in
// (n, w).
func ataChunkBounds(n, w int) []int {
	bounds := make([]int, w+1)
	for c := 1; c < w; c++ {
		p := n - int(float64(n)*math.Sqrt(1-float64(c)/float64(w)))
		if p < bounds[c-1] {
			p = bounds[c-1]
		}
		if p > n {
			p = n
		}
		bounds[c] = p
	}
	bounds[w] = n
	return bounds
}
