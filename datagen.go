package extdict

import (
	"extdict/internal/dataset"
	"extdict/internal/rng"
)

// UnionOfSubspacesParams configures the synthetic union-of-low-rank-
// subspaces generator — the data model (§II-B) under which ExD's sparsity
// guarantees hold and which mirrors the statistics of the paper's dense
// visual datasets.
type UnionOfSubspacesParams = dataset.UnionParams

// GenerateUnionOfSubspaces draws a column-normalized M×N dataset whose
// columns live on a union of low-rank subspaces, plus per-column subspace
// membership ground truth.
func GenerateUnionOfSubspaces(p UnionOfSubspacesParams, seed uint64) (*Matrix, []int, error) {
	u, err := dataset.GenerateUnion(p, rng.New(seed))
	if err != nil {
		return nil, nil, err
	}
	return u.A, u.Membership, nil
}

// GeneratePreset draws one of the built-in presets at the given scale
// (1 = default size; smaller values shrink the column count).
func GeneratePreset(name string, scale float64, seed uint64) (*Matrix, error) {
	p, err := dataset.Preset(name, scale)
	if err != nil {
		return nil, err
	}
	u, err := dataset.GenerateUnion(p, rng.New(seed))
	if err != nil {
		return nil, err
	}
	return u.A, nil
}

// LightFieldParams configures the structured plenoptic-camera generator
// used by the denoising and super-resolution examples.
type LightFieldParams = dataset.LightFieldParams

// GenerateLightField renders a synthetic light field and returns the patch
// matrix: one column per patch, Patch²·Grid² rows (camera-major layout).
// Columns are raw intensities (not normalized): reconstruction applications
// need them; call NormalizeColumns before Fit.
func GenerateLightField(p LightFieldParams, seed uint64) (*Matrix, error) {
	lf, err := dataset.GenerateLightField(p, rng.New(seed))
	if err != nil {
		return nil, err
	}
	return lf.A, nil
}

// LightFieldSubsetRows returns the row indices of the central sub×sub
// camera block of a light field generated with p, in layout order (the
// super-resolution observation space).
func LightFieldSubsetRows(p LightFieldParams, sub int) ([]int, error) {
	lf := &dataset.LightField{Params: p}
	return lf.CameraSubsetRows(sub)
}

// AddNoiseSNR returns a copy of v corrupted with Gaussian noise scaled for
// the given signal-to-noise ratio in dB.
func AddNoiseSNR(v []float64, snrDB float64, seed uint64) []float64 {
	return dataset.AddNoise(v, snrDB, rng.New(seed))
}
