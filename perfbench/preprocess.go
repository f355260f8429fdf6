package main

import (
	"fmt"

	"extdict/internal/cluster"
	"extdict/internal/exd"
	"extdict/internal/mat"
	"extdict/internal/omp"
	"extdict/internal/sparse"
	"extdict/internal/tune"
)

// preprocessInputs is how many tuner seeds one run cycles through. The
// tuner's choice of L moves its cost by tens of percent from one seed to the
// next, so a run reports the median over several.
const preprocessInputs = 10

// fitCounts are the counts a fit must repeat exactly on the same input.
type fitCounts struct{ l, nnz, iters int }

// tracedFit is what a traced operation learned about the tuner and the
// transform.
type tracedFit struct {
	res    tune.Result
	fit    *exd.Transform
	relErr float64
}

// runPreprocess measures ExtDict's one-time preprocessing, Table II's
// "overall" column: tune.TuneAndFit on the cancercell preset for the
// paper's 8×8 platform. tune, exd and omp do nearly all the work.
func runPreprocess(cfg config, t *tracer) (outcome, error) {
	plat := cluster.NewPlatform(8, 8)
	var a *mat.Dense
	setups, err := setup(cfg, func() error {
		var err error
		a, err = generate(t, "cancercell", cfg)
		return err
	})
	if err != nil {
		return outcome{}, err
	}
	tcfg := func(in int) tune.Config {
		return tune.Config{Epsilon: epsilon, Workers: mat.Workers, Seed: subSeed(cfg.seed, in)}
	}

	want := make([]*fitCounts, preprocessInputs)
	var first *tracedFit // the first input's, for the count metrics
	// same checks a fit against the full-data tolerance and against the
	// counts of the first fit of the same input.
	same := func(in int, fit *exd.Transform, relErr float64) error {
		if relErr > epsilon*(1+1e-9) {
			return fmt.Errorf("input %d: transform error %.4g exceeds eps %.2g", in, relErr, epsilon)
		}
		got := fitCounts{fit.L(), fit.C.NNZ(), fit.OMPIters}
		if want[in] == nil {
			want[in] = &got
		} else if *want[in] != got {
			return fmt.Errorf("input %d: fit counts %+v differ from the first fit's %+v", in, got, *want[in])
		}
		return nil
	}

	tm, err := measure(cfg, t, preprocessInputs, func(in int, t *tracer) func() error {
		if t == nil {
			fit, _, err := tune.TuneAndFit(a, plat, tcfg(in))
			return func() error {
				if err != nil {
					return err
				}
				return same(in, fit, fit.RelError(a))
			}
		}
		// The traced operation makes TuneAndFit's calls one by one: tune,
		// then fit the chosen L on the full data, escalating to the next
		// larger candidate while the fit misses eps.
		var res tune.Result
		var err error
		t.do("tune.Tune", func() { res, err = tune.Tune(a, plat, tcfg(in)) })
		if err != nil {
			return func() error { return err }
		}
		var fit *exd.Transform
		relErr := 0.0
		for _, l := range fitOrder(res, a.Cols) {
			t.do("exd.Fit", func() {
				fit, err = exd.Fit(a, exd.Params{L: l, Epsilon: epsilon, Workers: mat.Workers, Seed: tcfg(in).Seed})
			})
			if err != nil {
				return func() error { return err }
			}
			t.do("exd.RelError", func() { relErr = fit.RelError(a) })
			if relErr <= epsilon*(1+1e-9) {
				break
			}
		}
		return func() error {
			if err := same(in, fit, relErr); err != nil {
				return err
			}
			// The OMP layer on its own, outside the operation's root span:
			// the Gram precompute and the column coding exd.Fit runs.
			var bc *omp.BatchCoder
			t.do("omp.NewBatchCoder", func() { bc = omp.NewBatchCoder(fit.D) })
			var c *sparse.CSC
			iters := 0
			t.do("omp.EncodeColumns", func() { c, iters = bc.EncodeColumns(a, epsilon, 0, mat.Workers) })
			if iters != fit.OMPIters || c.NNZ() != fit.C.NNZ() {
				return fmt.Errorf("input %d: EncodeColumns gave %d iterations and nnz %d, exd.Fit %d and %d",
					in, iters, c.NNZ(), fit.OMPIters, fit.C.NNZ())
			}
			if in == 0 && first == nil {
				first = &tracedFit{res, fit, relErr}
			}
			return nil
		}
	})
	if err != nil {
		return outcome{attempted: len(tm.plain) + len(tm.traced), failed: 1}, err
	}

	out := outcome{
		attempted: len(tm.plain) + len(tm.traced),
		setupS:    setups,
		opP50MS:   1e3 * median(tm.plain),
		opsPerS:   tm.opsPerSecond(),
	}
	if t != nil {
		subset := 0
		for _, s := range first.res.SubsetSizes {
			subset += s
		}
		out.layer = map[string]float64{
			"tune.tune_s":         perRoot(t, tm, "tune.Tune"),
			"tune.rounds":         float64(first.res.Rounds),
			"tune.subset_cols":    float64(subset),
			"exd.fit_s":           perRoot(t, tm, "exd.Fit"),
			"exd.l":               float64(first.fit.L()),
			"exd.nnz":             float64(first.fit.C.NNZ()),
			"exd.rel_error":       first.relErr,
			"omp.gram_s":          spanMedian(t, "omp.NewBatchCoder"),
			"omp.encode_s":        spanMedian(t, "omp.EncodeColumns"),
			"omp.iters":           float64(first.fit.OMPIters),
			"trace.overhead_frac": tm.overhead(),
		}
	}
	return out, nil
}

// fitOrder is the order in which tune.TuneAndFit tries dictionary sizes on
// the full data: the tuned L, every larger candidate, then N.
func fitOrder(res tune.Result, n int) []int {
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
