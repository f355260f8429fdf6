// Package extdict is a data- and platform-aware framework for iterative
// analysis and learning on massive, densely correlated datasets — a Go
// reproduction of "ExtDict: Extensible Dictionaries for Data- and
// Platform-Aware Large-Scale Learning" (Mirhoseini et al., IPDPS 2017).
//
// Iterative algorithms such as LASSO regression and the Power method spend
// their time on Gram-matrix products y = AᵀA·x. ExtDict preprocesses the
// data once into an Extensible Dictionary factorization A ≈ D·C — D a
// dictionary of sampled data columns, C sparse — and then iterates on
// (DC)ᵀDC·x instead, which is dramatically cheaper in flops, communication,
// and memory. The dictionary size L is a tunable knob: ExtDict picks the L
// that minimizes a cost model of the *target platform* (cores, nodes, and
// their word-per-flop ratios), which is what distinguishes it from purely
// data-aware projections.
//
// # Quick start
//
//	data := extdict.NewMatrixData(rows, cols, values) // row-major values
//	data.NormalizeColumns()
//	platform := extdict.NewPlatform(8, 8)      // 8 nodes × 8 cores
//	model, err := extdict.Fit(data, platform, extdict.Options{Epsilon: 0.1})
//	op, err := model.GramOperator()            // distributed (DC)ᵀDC·x
//	pca := extdict.SolvePCA(op, extdict.PCAOptions{Components: 10})
//
// The distributed platform is simulated in-process: ranks are goroutines,
// collectives move real data, and every flop and word is counted and priced
// by the platform cost model, so runtime/energy/memory trends match a real
// message-passing deployment (see DESIGN.md for the substitution argument).
package extdict

import (
	"fmt"

	"extdict/internal/cluster"
	"extdict/internal/dist"
	"extdict/internal/exd"
	"extdict/internal/mat"
	"extdict/internal/perf"
	"extdict/internal/tune"
)

// Matrix is a dense row-major matrix of float64, the input data type of the
// framework. Data is stored column-per-signal: an M×N matrix holds N signals
// of dimension M.
type Matrix = mat.Dense

// NewMatrixData wraps data (length rows*cols, row-major) as a matrix without
// copying.
func NewMatrixData(rows, cols int, data []float64) *Matrix {
	return mat.NewDenseData(rows, cols, data)
}

// Platform describes the execution target: a nodes×cores topology plus the
// cost model (word-per-flop ratios, latencies) that prices its operations.
type Platform = cluster.Platform

// NewPlatform returns a platform with the default commodity-cluster cost
// model. Adjust the Cost fields to calibrate to other hardware.
func NewPlatform(nodes, coresPerNode int) Platform {
	return cluster.NewPlatform(nodes, coresPerNode)
}

// Objective selects which cost the auto-tuner minimizes.
type Objective = perf.Objective

// Tuning objectives.
const (
	// Runtime minimizes the Eq. 2 per-iteration time prediction.
	Runtime = perf.Runtime
	// Energy minimizes the Eq. 3 energy prediction.
	Energy = perf.Energy
	// Memory minimizes the Eq. 4 per-rank footprint.
	Memory = perf.Memory
)

// RunStats reports the cost of distributed work: exact flop and word counts
// plus modeled time/energy under the platform cost model and measured
// wall-clock.
type RunStats = cluster.Stats

// Options configures Fit.
type Options struct {
	// Epsilon is the relative transformation error tolerance ε:
	// ‖A - D·C‖_F ≤ ε‖A‖_F. Required, in (0, 1).
	Epsilon float64
	// L fixes the dictionary size; 0 (the default) auto-tunes it against
	// the platform cost model.
	L int
	// Objective selects the auto-tuning target (default Runtime).
	Objective Objective
	// MaxAtoms caps the per-column sparsity of C; 0 = min(M, L).
	MaxAtoms int
	// Workers sets preprocessing parallelism; 0 = 1.
	Workers int
	// Seed makes preprocessing deterministic.
	Seed uint64
}

// Model is a fitted ExtDict model: the ExD transform bound to the platform
// it was tuned for.
type Model struct {
	transform *exd.Transform
	platform  Platform
	tuning    *tune.Result
}

// Fit preprocesses the data: when opts.L is zero it tunes the dictionary
// size for the platform (measuring the density function α(L) on data
// subsets, §VII), then runs the ExD projection (Algorithm 1). The data must
// be column-normalized; NormalizeColumns does that in place.
func Fit(data *Matrix, platform Platform, opts Options) (*Model, error) {
	if err := platform.Topology.Validate(); err != nil {
		return nil, err
	}
	if opts.Epsilon <= 0 || opts.Epsilon >= 1 {
		return nil, fmt.Errorf("extdict: Epsilon %v outside (0, 1)", opts.Epsilon)
	}
	m := &Model{platform: platform}
	if opts.L > 0 {
		tr, err := exd.Fit(data, exd.Params{
			L: opts.L, Epsilon: opts.Epsilon, MaxAtoms: opts.MaxAtoms,
			Workers: opts.Workers, Seed: opts.Seed,
		})
		if err != nil {
			return nil, err
		}
		m.transform = tr
		return m, nil
	}
	tr, res, err := tune.TuneAndFit(data, platform, tune.Config{
		Epsilon: opts.Epsilon, Objective: opts.Objective,
		Workers: opts.Workers, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	m.transform = tr
	m.tuning = &res
	return m, nil
}

// L returns the dictionary size of the fitted model.
func (m *Model) L() int { return m.transform.L() }

// N returns the number of coded data columns.
func (m *Model) N() int { return m.transform.N() }

// Alpha returns the density measure nnz(C)/N — average nonzeros per coded
// column.
func (m *Model) Alpha() float64 { return m.transform.Alpha() }

// NNZ returns the stored nonzeros of the coefficient matrix.
func (m *Model) NNZ() int { return m.transform.C.NNZ() }

// Platform returns the platform the model was fitted for.
func (m *Model) Platform() Platform { return m.platform }

// RelError measures the achieved transformation error against data (which
// must be the matrix the model was fitted on, or compatible new data).
func (m *Model) RelError(data *Matrix) float64 { return m.transform.RelError(data) }

// MemoryWords returns the storage footprint of D and C in float64 words.
func (m *Model) MemoryWords() int { return m.transform.MemoryWords() }

// Dictionary returns the fitted M×L dictionary. The returned matrix is
// shared with the model; treat it as read-only.
func (m *Model) Dictionary() *Matrix { return m.transform.D }

// PredictIteration returns the platform cost model's estimate for one
// distributed Gram iteration with this model.
func (m *Model) PredictIteration() perf.Estimate {
	return m.PredictOn(m.platform)
}

// PredictOn estimates one distributed Gram iteration of this model on an
// arbitrary platform — useful for asking "what would this transform cost
// elsewhere?" without refitting. Note that the model's dictionary size was
// tuned for its own platform; a different platform may have a different
// optimum (that is the paper's point), so compare against a fresh Fit when
// the answer matters.
func (m *Model) PredictOn(platform Platform) perf.Estimate {
	return perf.PredictTransformed(m.transform.D.Rows, m.N(), m.L(), m.NNZ(), platform)
}

// TuningReport returns the tuner's candidate table, or nil when Fit was
// called with a fixed L.
func (m *Model) TuningReport() *tune.Result { return m.tuning }

// ExtendInfo reports what an evolving-data update did.
type ExtendInfo = exd.ExtendResult

// Extend appends new data columns to the model (§V-E). If the existing
// dictionary codes them within tolerance only C grows; otherwise new atoms
// are appended with the zero-padding layout. Column-normalize aNew first.
func (m *Model) Extend(aNew *Matrix) (ExtendInfo, error) {
	return m.transform.Extend(aNew, 0)
}

// Operator is one distributed Gram-matrix product y = G·x; implementations
// carry their data partitioning and return per-iteration RunStats.
type Operator = dist.Operator

// GramOperator builds the distributed Algorithm 2 operator (DC)ᵀDC·x for
// this model on its platform.
func (m *Model) GramOperator() (Operator, error) {
	comm := cluster.NewComm(m.platform)
	return dist.NewExDGram(comm, m.transform.D, m.transform.C)
}

// DenseGramOperator builds the untransformed baseline operator AᵀA·x with A
// column-partitioned across the platform's ranks.
func DenseGramOperator(data *Matrix, platform Platform) Operator {
	return dist.NewDenseGram(cluster.NewComm(platform), data)
}

// SGDOperator builds the stochastic baseline: each application draws a fresh
// batch of rows and computes the unbiased estimate (M/B)·A_bᵀA_b·x.
func SGDOperator(data *Matrix, platform Platform, batch int, seed uint64) Operator {
	return dist.NewBatchGram(cluster.NewComm(platform), data, batch, seed)
}
