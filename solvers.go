package extdict

import (
	"extdict/internal/mat"
	"extdict/internal/solver"
)

// LassoOptions configures SolveLasso; see solver.LassoOpts for field
// documentation.
type LassoOptions = solver.LassoOpts

// LassoResult is the outcome of SolveLasso.
type LassoResult = solver.LassoResult

// SolveLasso minimizes ‖A·x - y‖² + λ‖x‖₁ by distributed proximal gradient
// descent with Adagrad steps. op supplies the Gram product (use
// Model.GramOperator for the transformed iteration, DenseGramOperator for
// the raw baseline, or SGDOperator for stochastic updates); data is the
// original matrix A, needed once to form Aᵀy.
func SolveLasso(op Operator, data *Matrix, y []float64, opts LassoOptions) LassoResult {
	aty := data.MulVecT(y, nil)
	return solver.Lasso(op, aty, mat.Dot(y, y), opts)
}

// PCAOptions configures SolvePCA; see solver.PowerOpts.
type PCAOptions = solver.PowerOpts

// PCAResult is the outcome of SolvePCA.
type PCAResult = solver.PowerResult

// SolvePCA extracts the leading eigenpairs of the Gram matrix AᵀA by the
// distributed Power method with deflation.
func SolvePCA(op Operator, opts PCAOptions) PCAResult {
	return solver.PowerMethod(op, opts)
}

// SpectralOptions configures SolveSpectralClustering; see
// solver.SpectralOpts.
type SpectralOptions = solver.SpectralOpts

// SpectralResult is the outcome of SolveSpectralClustering.
type SpectralResult = solver.SpectralResult

// SolveSpectralClustering partitions the data columns into direction
// clusters by k-means on the Gram matrix's leading eigenvector embedding
// (the Power-method spectral-partitioning application).
func SolveSpectralClustering(op Operator, opts SpectralOptions) SpectralResult {
	return solver.SpectralCluster(op, opts)
}
