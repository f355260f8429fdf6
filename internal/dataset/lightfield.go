package dataset

import (
	"fmt"
	"math"

	"extdict/internal/mat"
	"extdict/internal/rng"
)

// LightFieldParams configures the structured light-field generator used by
// the denoising and super-resolution applications (§VIII-A).
//
// A plenoptic camera with Grid×Grid viewpoints images a synthetic scene; an
// 8×8 (Patch×Patch) pixel patch is cut at the same location in all views and
// stacked into one column of Patch²·Grid² entries. Columns therefore carry
// strong cross-view structure (each scene point shifts by a per-depth
// disparity between views), which is exactly the low-dimensional geometry
// the paper exploits: patches of a smooth scene live near a union of
// low-rank subspaces.
type LightFieldParams struct {
	Grid       int // cameras per side of the array (paper: 5)
	Patch      int // pixels per patch side (paper: 8)
	NumPatches int // columns of the data matrix
	NumSources int // smooth scene components (frequencies) to superpose
	SceneSize  int // virtual scene side length in pixels
}

// LightField is a generated plenoptic dataset.
type LightField struct {
	Params LightFieldParams

	// A is the Patch²·Grid² × NumPatches data matrix. Column layout: for
	// camera (s, t) in row-major camera order, the Patch² pixels of the
	// patch in row-major pixel order. Columns are NOT normalized: image
	// reconstruction needs the raw intensities.
	A *mat.Dense
}

// sceneSource is one smooth component of the synthetic scene: a windowed
// cosine with a depth that determines its inter-view disparity.
type sceneSource struct {
	wx, wy, phase float64
	amp           float64
	disparity     float64 // pixels of shift per camera step
}

// GenerateLightField renders a synthetic light field and cuts patch columns.
func GenerateLightField(p LightFieldParams, r *rng.RNG) (*LightField, error) {
	if p.Grid <= 0 || p.Patch <= 0 || p.NumPatches <= 0 || p.NumSources <= 0 {
		return nil, fmt.Errorf("dataset: invalid light field params %+v", p)
	}
	if p.SceneSize < 4*p.Patch {
		return nil, fmt.Errorf("dataset: SceneSize %d too small for patch %d", p.SceneSize, p.Patch)
	}
	sources := make([]sceneSource, p.NumSources)
	for i := range sources {
		// Low spatial frequencies: natural-image-like smoothness.
		sources[i] = sceneSource{
			wx:        (0.02 + 0.16*r.Float64()) * math.Pi,
			wy:        (0.02 + 0.16*r.Float64()) * math.Pi,
			phase:     2 * math.Pi * r.Float64(),
			amp:       0.3 + r.Float64(),
			disparity: 1.5 * r.Float64(), // depth layer
		}
	}

	rows := p.Patch * p.Patch * p.Grid * p.Grid
	a := mat.NewDense(rows, p.NumPatches)
	col := make([]float64, rows)
	maxPos := p.SceneSize - p.Patch - int(3*float64(p.Grid)) - 1
	if maxPos < 1 {
		maxPos = 1
	}
	for j := 0; j < p.NumPatches; j++ {
		px := r.Intn(maxPos)
		py := r.Intn(maxPos)
		idx := 0
		for s := 0; s < p.Grid; s++ {
			for t := 0; t < p.Grid; t++ {
				for y := 0; y < p.Patch; y++ {
					for x := 0; x < p.Patch; x++ {
						col[idx] = sampleScene(sources, float64(px+x), float64(py+y), s, t)
						idx++
					}
				}
			}
		}
		a.SetCol(j, col)
	}
	return &LightField{Params: p, A: a}, nil
}

// sampleScene evaluates the scene for camera (s, t) at scene position (x,
// y): each source shifts by its disparity times the camera offset.
func sampleScene(sources []sceneSource, x, y float64, s, t int) float64 {
	var v float64
	for _, src := range sources {
		sx := x + src.disparity*float64(s)
		sy := y + src.disparity*float64(t)
		v += src.amp * math.Cos(src.wx*sx+src.wy*sy+src.phase)
	}
	return v
}

// CameraSubsetRows returns the row indices of A that belong to the central
// sub×sub camera block, in the same layout order. For the super-resolution
// experiment, sub=3 selects the 3×3 camera subset (576 of 1600 rows in the
// paper's configuration).
func (lf *LightField) CameraSubsetRows(sub int) ([]int, error) {
	p := lf.Params
	if sub <= 0 || sub > p.Grid {
		return nil, fmt.Errorf("dataset: camera subset %d outside [1, %d]", sub, p.Grid)
	}
	off := (p.Grid - sub) / 2
	rows := make([]int, 0, sub*sub*p.Patch*p.Patch)
	per := p.Patch * p.Patch
	for s := off; s < off+sub; s++ {
		for t := off; t < off+sub; t++ {
			base := (s*p.Grid + t) * per
			for k := 0; k < per; k++ {
				rows = append(rows, base+k)
			}
		}
	}
	return rows, nil
}

// AddNoise returns a copy of v corrupted by Gaussian noise scaled to achieve
// the given input SNR in dB (paper's denoising experiment feeds a 20 dB
// noisy image).
func AddNoise(v []float64, snrDB float64, r *rng.RNG) []float64 {
	sigPow := mat.Dot(v, v) / float64(len(v))
	noisePow := sigPow / math.Pow(10, snrDB/10)
	sigma := math.Sqrt(noisePow)
	out := make([]float64, len(v))
	for i := range v {
		out[i] = v[i] + sigma*r.NormFloat64()
	}
	return out
}
