// Package dist implements the paper's distributed computing model
// (Algorithm 2): iterative Gram-matrix products executed across the ranks of
// a simulated cluster, with the exact data partitioning, replication, and
// reduce/broadcast schedule the paper proves communication-optimal.
//
// All operators expose the same Gram product y = AᵀA·x (or its transformed
// equivalent (DC)ᵀDC·x), so the learning algorithms in the solver package
// are agnostic to which representation — raw data, ExD, or any baseline
// projection — backs the iteration. That interchangeability is the
// framework's central claim.
package dist

import (
	"fmt"

	"extdict/internal/cluster"
	"extdict/internal/mat"
	"extdict/internal/sparse"
)

// Operator applies one distributed Gram-matrix product.
type Operator interface {
	// Dim returns the dimension N of the operator (columns of A).
	Dim() int
	// Apply computes y = G·x as one distributed iteration and returns the
	// iteration's statistics. x and y must have length Dim; y is
	// overwritten. Implementations must tolerate x aliasing y being false
	// (never alias them).
	Apply(x, y []float64) cluster.Stats
	// Name identifies the operator for reports.
	Name() string
}

// BlockRange returns the half-open column range [lo, hi) that rank i of p
// owns under the paper's iN/P partitioning.
func BlockRange(n, p, i int) (lo, hi int) {
	return i * n / p, (i + 1) * n / p
}

// rangesFor partitions n columns across the communicator's ranks by
// BlockRange. It asks the communicator — not the platform — for the rank
// count, so a communicator shrunk after a rank crash partitions over
// exactly the surviving ranks.
func rangesFor(comm *cluster.Comm, n int) [][2]int {
	out := make([][2]int, comm.P())
	for i := range out {
		out[i][0], out[i][1] = BlockRange(n, len(out), i)
	}
	return out
}

// DenseGram is the untransformed baseline: y = AᵀA·x with A partitioned by
// columns across ranks. Each iteration computes v_i = A_i·x_i locally,
// allreduces the M-vector v = Σv_i, then computes y_i = A_iᵀ·v — moving
// min-communication M words on the critical path.
type DenseGram struct {
	comm    *cluster.Comm
	blocks  []*mat.Dense // per-rank column blocks of A
	ranges  [][2]int     // per-rank column ranges (BlockRange)
	scratch [][]float64  // per-rank M-vector v_i; Apply runs allocation-free
	n, m    int
}

// NewDenseGram partitions a (M×N) across the communicator's ranks.
func NewDenseGram(comm *cluster.Comm, a *mat.Dense) *DenseGram {
	p := comm.P()
	g := &DenseGram{
		comm: comm, n: a.Cols, m: a.Rows,
		blocks:  make([]*mat.Dense, p),
		ranges:  rangesFor(comm, a.Cols),
		scratch: make([][]float64, p),
	}
	for i := 0; i < p; i++ {
		g.blocks[i] = a.ColRange(g.ranges[i][0], g.ranges[i][1])
		g.scratch[i] = make([]float64, a.Rows)
	}
	return g
}

// Dim implements Operator.
func (g *DenseGram) Dim() int { return g.n }

// Name implements Operator.
func (g *DenseGram) Name() string { return "AᵀA" }

// Apply implements Operator.
func (g *DenseGram) Apply(x, y []float64) cluster.Stats {
	if len(x) != g.n || len(y) != g.n {
		panic("dist: DenseGram.Apply length mismatch")
	}
	return g.comm.Run(func(r *cluster.Rank) {
		lo, hi := g.ranges[r.ID][0], g.ranges[r.ID][1]
		blk := g.blocks[r.ID]

		// Resident set (Eq. 4): the rank's M×n_i column window of A plus its
		// M-vector scratch — established at construction, live for the run.
		r.AddResident(8 * (int64(g.m)*int64(hi-lo) + int64(g.m)))

		// v_i = A_i·x_i  (2·M·n_i flops: multiply + add per entry). The
		// pool-parallel kernel splits rows across idle cores; the flop count
		// is the serial contract. Memory traffic: the block streams once plus
		// the input and output vectors, 8·(M·n_i + M + n_i) bytes.
		v := blk.ParMulVec(x[lo:hi], g.scratch[r.ID])
		r.AddFlops(2 * int64(g.m) * int64(hi-lo))
		r.AddBytes(8 * (int64(g.m)*int64(hi-lo) + int64(g.m) + int64(hi-lo)))

		// v = Σ v_i across ranks; everyone needs it for step 2.
		r.Allreduce(v)

		// y_i = A_iᵀ·v.
		blk.ParMulVecT(v, y[lo:hi])
		r.AddFlops(2 * int64(g.m) * int64(hi-lo))
		r.AddBytes(8 * (int64(g.m)*int64(hi-lo) + int64(g.m) + int64(hi-lo)))
	})
}

// ExDGram executes Algorithm 2 on a transformed pair (D, C):
// y = Cᵀ·Dᵀ·D·C·x. The schedule depends on the regime:
//
//   - Case 1 (L ≤ M): D is stored only on rank 0. Ranks reduce the
//     L-vector v¹ = Σ C_i·x_i to rank 0, which computes v³ = Dᵀ(D·v¹)
//     alone and broadcasts the L-vector back; ranks finish with C_iᵀ·v³.
//     Critical-path words: 2·L.
//
//   - Case 2 (L > M): D is replicated on every rank. Ranks compute
//     v² = D·(C_i·x_i) locally, reduce the M-vector to rank 0, get the
//     M-vector back, and redundantly compute C_iᵀ·(Dᵀ·v). Critical-path
//     words: 2·M.
//
// Either way the communicated volume is 2·min(M, L) per iteration — the
// paper's optimal bound (§VI-B).
type ExDGram struct {
	comm    *cluster.Comm
	d       *mat.Dense
	blocks  []*sparse.CSC // per-rank column blocks of C
	ranges  [][2]int      // per-rank column ranges (BlockRange)
	nnz     []int64       // per-rank nnz
	scratch []exdScratch  // per-rank buffers; Apply runs allocation-free
	n       int
	l, m    int
	name    string
}

// exdScratch holds one rank's reusable vectors for both Algorithm 2 cases:
// two L-vectors (v¹ and, in Case 2, Dᵀ·v) and one M-vector (D·v¹).
type exdScratch struct {
	vl1, vl2 []float64
	vm       []float64
}

// NewExDGram partitions C by columns and places D according to the case.
func NewExDGram(comm *cluster.Comm, d *mat.Dense, c *sparse.CSC) (*ExDGram, error) {
	return NewTransformedGram(comm, d, c, "ExD")
}

// NewTransformedGram builds the Algorithm 2 operator for any projection
// A ≈ D·C (ExD or a baseline transform), labeled for reports.
func NewTransformedGram(comm *cluster.Comm, d *mat.Dense, c *sparse.CSC, name string) (*ExDGram, error) {
	if d.Cols != c.Rows {
		return nil, fmt.Errorf("dist: D is %dx%d but C has %d rows", d.Rows, d.Cols, c.Rows)
	}
	p := comm.P()
	g := &ExDGram{
		comm: comm, d: d, n: c.Cols, l: d.Cols, m: d.Rows,
		blocks:  make([]*sparse.CSC, p),
		ranges:  rangesFor(comm, c.Cols),
		nnz:     make([]int64, p),
		scratch: make([]exdScratch, p),
		name:    name,
	}
	for i := 0; i < p; i++ {
		g.blocks[i] = c.ColSliceRange(g.ranges[i][0], g.ranges[i][1])
		g.nnz[i] = int64(g.blocks[i].NNZ())
		g.scratch[i] = exdScratch{
			vl1: make([]float64, g.l),
			vl2: make([]float64, g.l),
			vm:  make([]float64, g.m),
		}
	}
	return g, nil
}

// Dim implements Operator.
func (g *ExDGram) Dim() int { return g.n }

// Name implements Operator.
func (g *ExDGram) Name() string { return g.name }

// CaseTwo reports whether the replicated-dictionary schedule is in use.
func (g *ExDGram) CaseTwo() bool { return g.l > g.m }

// Apply implements Operator.
func (g *ExDGram) Apply(x, y []float64) cluster.Stats {
	if len(x) != g.n || len(y) != g.n {
		panic("dist: ExDGram.Apply length mismatch")
	}
	if g.CaseTwo() {
		return g.comm.Run(func(r *cluster.Rank) { g.applyCase2(r, x, y) })
	}
	return g.comm.Run(func(r *cluster.Rank) { g.applyCase1(r, x, y) })
}

// applyCase1 is Algorithm 2, Case 1 (L ≤ M): D lives on rank 0 only.
func (g *ExDGram) applyCase1(r *cluster.Rank, x, y []float64) {
	lo, hi := g.ranges[r.ID][0], g.ranges[r.ID][1]
	blk := g.blocks[r.ID]

	// Resident set (Eq. 4, Case 1): the rank's CSC block — value and
	// row-index payload 16·nnz_i plus the column-pointer array — and its
	// constructor scratch (two L-vectors, one M-vector). D itself joins
	// only rank 0's resident set below.
	r.AddResident(16*g.nnz[r.ID] + 8*(int64(hi-lo)+1) + 16*int64(g.l) + 8*int64(g.m))

	// Step 1: v¹_i = C_i·x_i (sparse: 2·nnz_i flops; traffic is the CSC
	// payload 16·nnz_i plus the dense vectors and column-pointer array).
	v1 := blk.MulVec(x[lo:hi], g.scratch[r.ID].vl1)
	r.AddFlops(2 * g.nnz[r.ID])
	r.AddBytes(16*g.nnz[r.ID] + 8*(2*int64(hi-lo)+int64(g.l)+1))

	// Steps 3-4: reduce v¹ to rank 0 (L words on the path).
	r.Reduce(v1, 0)

	v3 := v1
	if r.ID == 0 {
		// Steps 4-5 on rank 0 only: v² = D·v¹ then v³ = Dᵀ·v². The M×L
		// dictionary is resident here and nowhere else — the memory saving
		// that defines Case 1.
		v2 := g.d.ParMulVec(v1, g.scratch[r.ID].vm)
		g.d.ParMulVecT(v2, v3)
		r.AddFlops(2 * 2 * int64(g.m) * int64(g.l))
		r.AddBytes(2 * 8 * (int64(g.m)*int64(g.l) + int64(g.m) + int64(g.l)))
		r.AddResident(8 * int64(g.m) * int64(g.l))
	}

	// Step 6: broadcast v³ (L words).
	r.Broadcast(v3, 0)

	// Step 7: y_i = C_iᵀ·v³.
	blk.MulVecT(v3, y[lo:hi])
	r.AddFlops(2 * g.nnz[r.ID])
	r.AddBytes(16*g.nnz[r.ID] + 8*(int64(g.l)+2*int64(hi-lo)+1))
}

// applyCase2 is Algorithm 2, Case 2 (L > M): D replicated everywhere.
func (g *ExDGram) applyCase2(r *cluster.Rank, x, y []float64) {
	lo, hi := g.ranges[r.ID][0], g.ranges[r.ID][1]
	blk := g.blocks[r.ID]

	// Resident set (Eq. 4, Case 2): the rank's CSC block payload and
	// column pointers plus its constructor scratch, as in Case 1.
	r.AddResident(16*g.nnz[r.ID] + 8*(int64(hi-lo)+1) + 16*int64(g.l) + 8*int64(g.m))

	// Step 1: v¹_i = C_i·x_i.
	v1 := blk.MulVec(x[lo:hi], g.scratch[r.ID].vl1)
	r.AddFlops(2 * g.nnz[r.ID])
	r.AddBytes(16*g.nnz[r.ID] + 8*(2*int64(hi-lo)+int64(g.l)+1))

	// Step 3: v²_i = D·v¹_i locally (the replication saves words later).
	// The M×L dictionary replica joins every rank's resident set — the
	// memory price Case 2 pays for its 2·M communication bound.
	v2 := g.d.ParMulVec(v1, g.scratch[r.ID].vm)
	r.AddFlops(2 * int64(g.m) * int64(g.l))
	r.AddBytes(8 * (int64(g.m)*int64(g.l) + int64(g.m) + int64(g.l)))
	r.AddResident(8 * int64(g.m) * int64(g.l))

	// Steps 4-6: v = Σ v²_i, everywhere (M words each way).
	r.Allreduce(v2)

	// Step 7: y_i = C_iᵀ·(Dᵀ·v) — the Dᵀ·v multiply is redundant on every
	// rank; that is the price Case 2 pays to keep communication at M.
	w := g.d.ParMulVecT(v2, g.scratch[r.ID].vl2)
	r.AddFlops(2 * int64(g.m) * int64(g.l))
	r.AddBytes(8 * (int64(g.m)*int64(g.l) + int64(g.m) + int64(g.l)))
	blk.MulVecT(w, y[lo:hi])
	r.AddFlops(2 * g.nnz[r.ID])
	r.AddBytes(16*g.nnz[r.ID] + 8*(int64(g.l)+2*int64(hi-lo)+1))
}
