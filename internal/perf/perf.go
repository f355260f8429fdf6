// Package perf implements the paper's performance quantification (§VI-B):
// closed-form predictions of per-iteration runtime (Eq. 2), energy (Eq. 3),
// and per-rank memory (Eq. 4) from the transform shape (M, N, L, nnz(C)) and
// the platform's word-per-flop ratios. The tune package minimizes these
// predictions over the dictionary size L; Fig. 8 validates them against the
// measured cost of the simulated cluster.
package perf

import (
	"math"

	"extdict/internal/cluster"
)

// Objective selects which cost Eq. to optimize.
type Objective int

const (
	// Runtime optimizes Eq. 2 (the default).
	Runtime Objective = iota
	// Energy optimizes Eq. 3.
	Energy
	// Memory optimizes Eq. 4.
	Memory
)

// String renders the objective name.
func (o Objective) String() string {
	switch o {
	case Runtime:
		return "runtime"
	case Energy:
		return "energy"
	case Memory:
		return "memory"
	}
	return "unknown"
}

// Estimate is the predicted cost of one Gram-product iteration.
type Estimate struct {
	// FlopsCritical is the flop count on the slowest rank's path: the
	// dictionary multiplies (not parallelizable across ranks — rank 0 does
	// them in Case 1, everyone redundantly in Case 2) plus this rank's
	// share of the sparse work.
	FlopsCritical float64
	// FlopsTotal is the total flops across ranks (drives energy).
	FlopsTotal float64
	// BytesCritical is the kernel memory traffic on the slowest rank's
	// path, mirroring the AddBytes claims the simulator counts: the byte
	// polynomials of the same kernels whose flops FlopsCritical prices.
	BytesCritical float64
	// BytesTotal is the total kernel memory traffic across ranks.
	BytesTotal float64
	// PathWords is the communicated words on the critical path:
	// 2·min(M, L) per iteration, the paper's optimal bound.
	PathWords float64
	// TotalWords counts every word moved by every rank.
	TotalWords float64
	// Time is the Eq. 2 prediction in seconds (critical-path flops, bytes
	// streamed, words, and collective latency under the platform cost
	// model).
	Time float64
	// EnergyJ is the Eq. 3 prediction in joules.
	EnergyJ float64
	// MemoryWordsPerRank is the Eq. 4 bound — the worst rank's peak
	// resident set in 8-byte words, proven against the allocmodel capacity
	// polynomial (M·L + 2·nnz(C)/P + N/P + M + 2·L + 1 for the transformed
	// operator: the dictionary, the CSC block with its row indices and
	// column pointers, and the per-rank workspace vectors).
	MemoryWordsPerRank float64
}

// Cost returns the estimate's value under the chosen objective, in the
// objective's natural unit (seconds, joules, or words).
func (e Estimate) Cost(o Objective) float64 {
	switch o {
	case Energy:
		return e.EnergyJ
	case Memory:
		return e.MemoryWordsPerRank
	default:
		return e.Time
	}
}

// latencyTerm returns the collective-latency seconds for `phases`
// reduce/broadcast rounds on the platform.
func latencyTerm(plat cluster.Platform, phases float64) float64 {
	p := plat.Topology.P()
	hops := 1.0
	if p > 1 {
		hops = math.Ceil(math.Log2(float64(p)))
	}
	return phases * hops * plat.Latency()
}

// PredictTransformed predicts one iteration of Algorithm 2 on a transformed
// pair with dictionary size l and nnz stored coefficients, for data shape
// m×n on the platform. It mirrors the simulator's accounting exactly:
//
//	time ≈ (4·nnz/P + 4·M·L)·c_f + 2·min(M, L)·c_w + latency
//
// (4 = two sparse products and two dictionary products, each 2 flops per
// multiply-add; the M·L term sits on the critical path in both cases —
// rank 0 serially in Case 1, redundantly replicated in Case 2).
func PredictTransformed(m, n, l, nnz int, plat cluster.Platform) Estimate {
	p := float64(plat.Topology.P())
	minML := float64(min(m, l))

	sparseCritical := 4 * float64(nnz) / p
	dictCritical := 4 * float64(m) * float64(l)
	e := Estimate{
		FlopsCritical: sparseCritical + dictCritical,
		PathWords:     2 * minML,
		TotalWords:    2 * minML * (p - 1),
	}
	// Total flops: sparse work once across ranks; dictionary work once in
	// Case 1 (rank 0), P times in Case 2 (replicated).
	dictTotal := dictCritical
	if l > m {
		dictTotal *= p
	}
	e.FlopsTotal = 4*float64(nnz) + dictTotal

	// Bytes mirror the AddBytes claims: the two sparse products stream the
	// CSC payload (16·nnz_i each), the N/P-length ends twice each, the
	// L-vector and the column pointers; the two dictionary products stream
	// D plus an L- and an M-vector each — on the critical path in both
	// cases (rank 0 serially in Case 1, redundantly in Case 2).
	sparseBytes := 32*float64(nnz)/p + 32*float64(n)/p + 16*float64(l) + 16
	dictBytes := 16 * (float64(m)*float64(l) + float64(m) + float64(l))
	e.BytesCritical = sparseBytes + dictBytes
	dictBytesTotal := dictBytes
	if l > m {
		dictBytesTotal *= p
	}
	e.BytesTotal = 32*float64(nnz) + 32*float64(n) + (16*float64(l)+16)*p + dictBytesTotal

	c := plat.Cost
	e.Time = e.FlopsCritical*c.FlopTime + e.BytesCritical*c.MemByteTime +
		e.PathWords*plat.WordTime() + latencyTerm(plat, 2)
	e.EnergyJ = e.FlopsTotal*c.FlopEnergy + e.TotalWords*plat.WordEnergy()
	// The worst rank's resident set (allocmodel's applyCase1 polynomial,
	// rank 0, in words): the dictionary M·L, the CSC block's values and row
	// indices 2·nnz/P, its column pointers N/P + 1, and the workspace
	// vectors vl1, vl2 (L each) and vm (M).
	e.MemoryWordsPerRank = float64(m)*float64(l) + 2*float64(nnz)/p +
		float64(n)/p + float64(m) + 2*float64(l) + 1
	return e
}

// PredictDense predicts one iteration of the untransformed baseline
// y = AᵀA·x with A column-partitioned: 4·M·N/P critical flops and 2·M
// critical words.
func PredictDense(m, n int, plat cluster.Platform) Estimate {
	p := float64(plat.Topology.P())
	e := Estimate{
		FlopsCritical: 4 * float64(m) * float64(n) / p,
		FlopsTotal:    4 * float64(m) * float64(n),
		PathWords:     2 * float64(m),
		TotalWords:    2 * float64(m) * (p - 1),
	}
	// Two dense products per iteration, each streaming the M×N/P block plus
	// its M- and N/P-length vector ends (the AddBytes contract).
	e.BytesCritical = 16 * (float64(m)*float64(n)/p + float64(m) + float64(n)/p)
	e.BytesTotal = 16 * (float64(m)*float64(n) + float64(m)*p + float64(n))
	c := plat.Cost
	e.Time = e.FlopsCritical*c.FlopTime + e.BytesCritical*c.MemByteTime +
		e.PathWords*plat.WordTime() + latencyTerm(plat, 2)
	e.EnergyJ = e.FlopsTotal*c.FlopEnergy + e.TotalWords*plat.WordEnergy()
	// The rank's resident set (allocmodel's DenseGram polynomial, in
	// words): the owned M×N/P column block plus the M-length partial
	// product buffer.
	e.MemoryWordsPerRank = float64(m)*float64(n)/p + float64(m)
	return e
}

// PredictSGD predicts one SGD iteration over an m×n data matrix with batch
// size b: 4·b·N/P critical flops and 2·b critical words.
func PredictSGD(m, n, batch int, plat cluster.Platform) Estimate {
	p := float64(plat.Topology.P())
	e := Estimate{
		FlopsCritical: 4 * float64(batch) * float64(n) / p,
		FlopsTotal:    4 * float64(batch) * float64(n),
		PathWords:     2 * float64(batch),
		TotalWords:    2 * float64(batch) * (p - 1),
	}
	// b dot products (16·n_i each), one Zero (8·n_i), and b axpys (24·n_i
	// each) per rank — the BatchGram AddBytes claims.
	e.BytesCritical = 40*float64(batch)*float64(n)/p + 8*float64(n)/p
	e.BytesTotal = 40*float64(batch)*float64(n) + 8*float64(n)
	c := plat.Cost
	e.Time = e.FlopsCritical*c.FlopTime + e.BytesCritical*c.MemByteTime +
		e.PathWords*plat.WordTime() + latencyTerm(plat, 2)
	e.EnergyJ = e.FlopsTotal*c.FlopEnergy + e.TotalWords*plat.WordEnergy()
	// The rank's resident set (allocmodel's BatchGram polynomial, in
	// words): every rank streams the full M×N data matrix from its own
	// copy, plus the batch-length partial product buffer.
	e.MemoryWordsPerRank = float64(m)*float64(n) + float64(batch)
	return e
}

// PredictEncodeBatch predicts the cost of Batch-OMP-coding a panel of
// `batch` signals against an M×L dictionary with support cap maxAtoms on
// the platform, whose P cores the panel parallelizes across (columns are
// independent, so the critical path carries ⌈batch/P⌉ of them). It is the
// serving layer's admission model: the same Eq. 2 shape as the solver
// predictions — flops at the achieved dense rate plus streamed bytes at
// memory bandwidth — with no collective terms, since coding touches no
// cluster.
//
// Per signal, Batch-OMP costs (Rubinstein et al., the implementation in
// internal/omp):
//
//	flops ≈ 2·M·L  (initial correlations α⁰ = Dᵀa)
//	      + k·(k+1)·L  (the α update re-applies i Gram-row axpys at step i)
//	      + k³  (progressive Cholesky growth and triangular solves, bound)
//	bytes ≈ 8·(M·L + M + L)  (streaming D once for α⁰)
//	      + 12·k·(k+1)·L  (the axpys re-stream 24 bytes per element)
//
// with k = min(maxAtoms, M, L). Both are upper bounds — early residual
// convergence only shrinks them — which is the right sign for an admission
// controller: it sheds on the modeled worst case, never accepts on it.
//
// MemoryWordsPerRank is the serving-side Eq. 4 analogue: the resident
// dictionary M·L, its precomputed Gram L², the batch's signals batch·M,
// and the per-worker α/α⁰/selection workspace ≈ 3·L.
func PredictEncodeBatch(m, l, batch, maxAtoms int, plat cluster.Platform) Estimate {
	if batch < 0 {
		batch = 0
	}
	k := float64(min(m, l))
	if maxAtoms > 0 && float64(maxAtoms) < k {
		k = float64(maxAtoms)
	}
	mf, lf := float64(m), float64(l)
	perFlops := 2*mf*lf + k*(k+1)*lf + k*k*k
	perBytes := 8*(mf*lf+mf+lf) + 12*k*(k+1)*lf

	p := float64(plat.Topology.P())
	critCols := math.Ceil(float64(batch) / p)
	e := Estimate{
		FlopsCritical: critCols * perFlops,
		FlopsTotal:    float64(batch) * perFlops,
		BytesCritical: critCols * perBytes,
		BytesTotal:    float64(batch) * perBytes,
	}
	c := plat.Cost
	e.Time = e.FlopsCritical*c.FlopTime + e.BytesCritical*c.MemByteTime
	e.EnergyJ = e.FlopsTotal * c.FlopEnergy
	e.MemoryWordsPerRank = mf*lf + lf*lf + float64(batch)*mf + 3*lf
	return e
}

// RetryBackoff is the modeled recovery pause before retry number attempt
// (0-based) of a supervised solve: base·2^attempt virtual seconds of
// exponential backoff. The solver Supervisor charges it to the run's
// ModeledTime when it restarts a solve on a shrunk communicator, so
// fault recovery shows up in the same performance model Eq. 2 feeds —
// and, being a pure function of the attempt number, replays exactly.
func RetryBackoff(base float64, attempt int) float64 {
	if base <= 0 || attempt < 0 {
		return 0
	}
	return math.Ldexp(base, attempt)
}
