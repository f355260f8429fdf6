// Package tune implements ExtDict's automated customization of ExD (§VII):
// choosing the dictionary size L that minimizes the platform cost model.
//
// The expensive ingredient is the density function α(L, A, ε) = nnz(C)/N.
// Evaluating it on the full data would cost a full ExD fit per candidate L
// (the Brute Force the paper rules out), so the tuner exploits the paper's
// subset result: for union-of-subspaces data, E[α(L, A_s, ε)] = E[α(L, A, ε)]
// for a uniform random subset A_s. It draws one column permutation of A,
// whose prefixes A₁ ⊂ A₂ ⊂ … (each twice the last) are nested uniform
// subsets, and probes each candidate L with the very dictionary exd.Fit
// draws for (L, Seed) over the full A: it codes the prefixes in turn, each
// column once, until that candidate's α̂ stabilizes, then plugs α̂(L)·N into
// the Eq. 2/3/4 predictions. The pick is the argmin over the L grid.
//
// A dictionary drawn from all of A holds any given prefix column with the
// same probability L/N as any other column, so α̂ is unbiased at every L.
// A dictionary sampled from the subset would not be: as L → |A_s| it would
// swallow the subset and α̂ would collapse to 1, which is why no candidate
// needs a reliability guard against the subset size. Probing exd.Fit's own
// draw, rather than nested dictionaries (the first L columns of the
// permutation, one Gram for every L), keeps the validated codes reusable:
// TuneAndFit keeps the pick's coder, codes the columns its prefix never
// saw, and returns exactly exd.Fit(A, L, Seed).
//
// Candidates are visited in increasing L. The model's cost is
// non-decreasing in nnz and increasing in L, so the scan stops at the first
// L whose nnz = 0 bound already meets the best feasible estimate: the pick
// is the one an exhaustive scan would make, and the large Grams at the top
// of the grid are never built.
package tune

import (
	"fmt"
	"math"
	"slices"
	"time"

	"extdict/internal/cluster"
	"extdict/internal/exd"
	"extdict/internal/mat"
	"extdict/internal/omp"
	"extdict/internal/perf"
	"extdict/internal/rng"
)

// Config controls the tuning procedure.
type Config struct {
	// Epsilon is the transformation error tolerance the tuned transform
	// must satisfy.
	Epsilon float64
	// Objective selects which cost to minimize (default Runtime).
	Objective perf.Objective
	// LGrid lists candidate dictionary sizes, each in [1, N]. Empty = an
	// automatic geometric grid anchored at the measured L_min.
	LGrid []int
	// InitialSubset is the number of columns in the first probe prefix
	// (default max(64, N/32), clamped to N).
	InitialSubset int
	// StabilityTol stops a candidate's prefix growth once its α estimate
	// moved less than this relative amount between consecutive prefixes
	// (default 0.15, mirroring the paper's ~14%-at-1% observation in
	// Fig. 6).
	StabilityTol float64
	// MaxRounds caps the number of prefixes a candidate codes (default 4).
	MaxRounds int
	// Workers parallelizes the probe coding.
	Workers int
	// Seed drives the probe permutation and the dictionaries, which are
	// exd.Fit's for (L, Seed).
	Seed uint64
}

func (c *Config) fill(n int) {
	if c.StabilityTol <= 0 {
		c.StabilityTol = 0.15
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 4
	}
	if c.InitialSubset <= 0 {
		c.InitialSubset = n / 32
		if c.InitialSubset < 64 {
			c.InitialSubset = 64
		}
	}
	if c.InitialSubset > n {
		c.InitialSubset = n
	}
}

// GeometricGrid returns up to points values geometrically spaced in
// [lo, hi], always including both endpoints, strictly increasing.
func GeometricGrid(lo, hi, points int) []int {
	if lo < 1 {
		lo = 1
	}
	if hi < lo {
		hi = lo
	}
	if points < 2 || lo == hi {
		return []int{lo}
	}
	out := make([]int, 0, points)
	ratio := math.Pow(float64(hi)/float64(lo), 1/float64(points-1))
	v := float64(lo)
	for i := 0; i < points; i++ {
		iv := int(math.Round(v))
		if len(out) == 0 || iv > out[len(out)-1] {
			out = append(out, iv)
		}
		v *= ratio
	}
	if out[len(out)-1] != hi {
		out = append(out, hi)
	}
	return out
}

// Candidate is one grid dictionary size.
type Candidate struct {
	L int
	// Alpha is the prefix estimate of α(L) (nonzeros per column).
	Alpha float64
	// AchievedError is the relative transformation error on the probe
	// prefix.
	AchievedError float64
	// Feasible reports whether the probe met the error tolerance — L
	// values below L_min fail here (the regime left of the knee in
	// Fig. 4b).
	Feasible bool
	// Rounds is the number of nested prefixes this candidate coded: its
	// estimates rest on the first Result.SubsetSizes[Rounds-1] columns of
	// the permutation.
	Rounds int
	// Pruned reports that the scan stopped before probing this L, because
	// even a code with no nonzeros could not beat the best feasible
	// estimate at a smaller L. A pruned candidate is never feasible, and
	// its Estimate is that nnz = 0 bound.
	Pruned bool
	// Estimate is the platform cost prediction at this L using α̂·N.
	Estimate perf.Estimate
}

// Result is the tuner's output.
type Result struct {
	// Best is the selected candidate (lowest predicted cost among
	// feasible ones). After TuneAndFit escalates, it describes the
	// transform actually returned.
	Best Candidate
	// Candidates holds every grid L in increasing order, pruned ones
	// included.
	Candidates []Candidate
	// SubsetSizes lists the nested prefix sizes, one per round, up to the
	// deepest any candidate coded.
	SubsetSizes []int
	// Rounds is len(SubsetSizes): the most prefixes any candidate coded.
	Rounds int
	// Escalations counts the larger sizes TuneAndFit had to fit because
	// the pick missed the tolerance on the full data (0 from Tune).
	Escalations int
	// TuneWall is the host wall time of the scan over the grid, and
	// FitWall that of TuneAndFit's full-data transform and its check
	// (escalations included): Table II's tuning and transformation
	// columns.
	TuneWall, FitWall time.Duration
}

// probe is the coding state scan hands to TuneAndFit for the pick: bc
// codes against exd.Fit's dictionary for the pick's L (drawn as columns
// idx of A), and codes[j] holds column j's code for every j in
// perm[:seen], and no other slot is set.
type probe struct {
	idx   []int
	bc    *omp.BatchCoder
	perm  []int
	seen  int
	codes []omp.Result
}

// Tune selects the cost-minimizing dictionary size for data a on the given
// platform. The data must be column-normalized (as for exd.Fit).
func Tune(a *mat.Dense, plat cluster.Platform, cfg Config) (Result, error) {
	res, _, err := scan(a, plat, cfg, true)
	return res, err
}

// scan probes the grid in increasing L and returns the result with the
// pick's probe. With prune unset it probes every candidate, which only
// tests use to check that pruning never changes the pick.
func scan(a *mat.Dense, plat cluster.Platform, cfg Config, prune bool) (Result, *probe, error) {
	sw := perf.StartWall()
	var res Result
	if cfg.Epsilon <= 0 || cfg.Epsilon >= 1 {
		return res, nil, fmt.Errorf("tune: epsilon %v outside (0, 1)", cfg.Epsilon)
	}
	m, n := a.Rows, a.Cols
	cfg.fill(n)
	r := rng.New(cfg.Seed)
	grid := slices.Clone(cfg.LGrid)
	slices.Sort(grid)
	grid = slices.Compact(grid)
	if len(grid) == 0 {
		grid = autoGrid(a, r, cfg)
	} else if grid[0] < 1 || grid[len(grid)-1] > n {
		return res, nil, fmt.Errorf("tune: grid %v outside [1, N=%d]", cfg.LGrid, n)
	}
	// The prefixes come from a stream split off the seed's, so they are
	// independent of the dictionaries exd.Draw takes from the seed itself.
	perm := r.Split().Perm(n)
	sizes := []int{cfg.InitialSubset}
	for len(sizes) < cfg.MaxRounds && sizes[len(sizes)-1] < n {
		sizes = append(sizes, min(2*sizes[len(sizes)-1], n))
	}

	res.Candidates = make([]Candidate, len(grid))
	var best *probe
	bestIdx, bestCost := -1, 0.0
	for i, l := range grid {
		c := &res.Candidates[i]
		c.L = l
		// The cost model is non-decreasing in nnz and increasing in L, so
		// once even nnz = 0 cannot beat the best, no larger L can either.
		if prune && bestIdx >= 0 && perf.PredictTransformed(m, n, l, 0, plat).Cost(cfg.Objective) >= bestCost {
			for k := i; k < len(grid); k++ {
				res.Candidates[k] = Candidate{L: grid[k], Pruned: true,
					Estimate: perf.PredictTransformed(m, n, grid[k], 0, plat)}
			}
			break
		}
		pr := probeL(a, l, perm, sizes, cfg, c)
		c.Estimate = perf.PredictTransformed(m, n, l, int(math.Round(c.Alpha*float64(n))), plat)
		res.Rounds = max(res.Rounds, c.Rounds)
		if cost := c.Estimate.Cost(cfg.Objective); c.Feasible && (bestIdx < 0 || cost < bestCost) {
			best, bestIdx, bestCost = pr, i, cost
		}
	}
	res.SubsetSizes = sizes[:res.Rounds]
	res.TuneWall = sw.Elapsed()
	if bestIdx < 0 {
		return res, nil, fmt.Errorf("tune: no feasible dictionary size in grid %v for eps=%v (L_min exceeds the grid)",
			grid, cfg.Epsilon)
	}
	res.Best = res.Candidates[bestIdx]
	return res, best, nil
}

// autoGrid builds the automatic L grid around the L_min measured on a
// probe subset drawn from r.
func autoGrid(a *mat.Dense, r *rng.RNG, cfg Config) []int {
	n := a.Cols
	// Anchor the automatic grid at the measured L_min so the tuner can
	// reach near-minimal dictionaries (where RankMap operates) as well as
	// strongly over-complete ones. L_min is rank-driven, so a probe subset
	// estimates it well.
	probe := a.ColSlice(r.Subset(n, cfg.InitialSubset))
	lMin := EstimateLMin(probe, cfg.Epsilon, cfg.Seed)
	// Anchor the grid essentially AT L_min: on communication-bound
	// platforms the optimum sits at the smallest feasible dictionary
	// (where RankMap operates, and where the paper reports parity with
	// it). Infeasible picks are caught by the prefix feasibility check
	// and, as a last resort, by TuneAndFit's escalation.
	lo := min(lMin+max(1, lMin/32), n)
	// Cap the grid well below N: beyond ~24·L_min the density curve has
	// flattened while the M·L cost terms keep growing, so larger
	// candidates can never win — and probing them would need O(L²) Gram
	// work.
	hi := max(min(max(24*lMin, 64), n), lo)
	return GeometricGrid(lo, hi, 10)
}

// probeL codes the nested prefixes of perm against exd.Fit's dictionary
// for (l, Seed), each column once, until the α estimate moves less than
// StabilityTol between prefixes or the sizes run out. It fills c's
// estimates and returns the codes.
func probeL(a *mat.Dense, l int, perm, sizes []int, cfg Config, c *Candidate) *probe {
	idx, d := exd.Draw(a, l, cfg.Seed)
	bc := omp.NewBatchCoder(d)
	pr := &probe{idx: idx, bc: bc, perm: perm, codes: make([]omp.Result, a.Cols)}
	nnz := 0
	var resid2, norm2, prev float64
	for round, size := range sizes {
		fresh := perm[pr.seen:size]
		bc.EncodeColumnsAt(a, fresh, cfg.Epsilon, 0, cfg.Workers, pr.codes)
		for _, j := range fresh {
			nnz += len(pr.codes[j].Idx)
			resid2 += pr.codes[j].Resid2
			norm2 += pr.codes[j].Norm2
		}
		pr.seen = size
		c.Rounds = round + 1
		c.Alpha = float64(nnz) / float64(size)
		if round > 0 && (prev == 0 || math.Abs(c.Alpha-prev)/prev <= cfg.StabilityTol) {
			break
		}
		prev = c.Alpha
	}
	if norm2 > 0 {
		c.AchievedError = math.Sqrt(resid2 / norm2)
	}
	c.Feasible = c.AchievedError <= cfg.Epsilon*1.05
	return pr
}

// finish codes the columns the probe never saw with the probe's own coder
// and assembles the transform exd.Fit(a, p) returns.
func (pr *probe) finish(a *mat.Dense, p exd.Params) *exd.Transform {
	pr.bc.EncodeColumnsAt(a, pr.perm[pr.seen:], p.Epsilon, 0, p.Workers, pr.codes)
	c, iters := omp.Assemble(p.L, pr.codes)
	return &exd.Transform{D: pr.bc.D, C: c, DictIdx: pr.idx, OMPIters: iters, Params: p}
}

// fitOrder is the order in which TuneAndFit tries dictionary sizes on the
// full data: the pick, every larger grid L (pruned ones included), then N.
func fitOrder(res Result, n int) []int {
	try := []int{res.Best.L}
	for _, c := range res.Candidates {
		if c.L > res.Best.L {
			try = append(try, c.L)
		}
	}
	if try[len(try)-1] < n {
		try = append(try, n)
	}
	return try
}

// TuneAndFit tunes L, then returns the full-data transform at the selected
// size: exactly exd.Fit(a, L, Seed), built from the pick's probe codes plus
// the columns its prefix never saw. This is ExtDict's complete
// preprocessing step; its wall time corresponds to Table II's "tuning +
// transformation" overhead.
//
// Feasibility near the knee is measured on a prefix, so the chosen L can
// occasionally miss the tolerance on the full data; in that case the fit
// escalates to the next-larger candidate until the criterion holds, and
// Result.Escalations counts the steps.
func TuneAndFit(a *mat.Dense, plat cluster.Platform, cfg Config) (*exd.Transform, Result, error) {
	res, pr, err := scan(a, plat, cfg, true)
	if err != nil {
		return nil, res, err
	}
	sw := perf.StartWall()
	p := exd.Params{Epsilon: cfg.Epsilon, Workers: cfg.Workers, Seed: cfg.Seed}
	var tr *exd.Transform
	for step, l := range fitOrder(res, a.Cols) {
		p.L = l
		if step == 0 {
			tr = pr.finish(a, p)
		} else if tr, err = exd.Fit(a, p); err != nil {
			return nil, res, err
		}
		res.Escalations = step
		if achieved := tr.RelError(a); achieved <= cfg.Epsilon*(1+1e-9) {
			if step > 0 {
				// Record the escalated choice so Result stays consistent
				// with the transform actually returned.
				res.Best = Candidate{
					L: l, Alpha: tr.Alpha(), AchievedError: achieved, Feasible: true,
					Estimate: perf.PredictTransformed(a.Rows, a.Cols, l, tr.C.NNZ(), plat),
				}
			}
			res.FitWall = sw.Elapsed()
			return tr, res, nil
		}
	}
	res.FitWall = sw.Elapsed()
	return tr, res, fmt.Errorf("tune: no candidate met eps=%v on the full data", cfg.Epsilon)
}
