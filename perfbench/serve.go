package main

import (
	"encoding/json"
	"fmt"
	"math"

	"extdict/internal/exd"
	"extdict/internal/mat"
	"extdict/internal/omp"
	"extdict/internal/rng"
	"extdict/internal/serve"
	"extdict/internal/serve/loadtest"
)

const (
	// serveDict is the name the dictionary is served under.
	serveDict = "cancercell"
	// serveAtoms is the over-complete dictionary size: L > M = 128.
	serveAtoms = 256
	// serveTol is serve.Config's default OMP tolerance; the load generator's
	// reference encodes must use the same one.
	serveTol = 0.1
	// serveClients is the closed loop's client count, one per core of the
	// 2-core host the benchmark was sized on.
	serveClients = 2
	// serveRequests per client per round: 1200 requests a round leave 12
	// samples beyond the round's p99.
	serveRequests = 600
	// serveDenoiseEvery routes every 10th request to /v1/denoise.
	serveDenoiseEvery = 10
)

// runServe measures the encode service: serve.New with its default Config
// over an over-complete cancercell dictionary, served by serve.Start on
// loopback and driven by loadtest.Run with a closed loop of two clients
// sending seeded 3-atom signals. One operation is one request; a round of
// loadtest.Run is the unit the loop repeats.
func runServe(cfg config, t *tracer) (outcome, error) {
	var d *mat.Dense
	var handles []*serve.Handle // one per set-up; the last one serves
	closeAll := func(hs []*serve.Handle) error {
		var first error
		for _, h := range hs {
			if err := h.Close(); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	setups, err := setup(cfg, func() error {
		a, err := generate(t, "cancercell", cfg)
		if err != nil {
			return err
		}
		var fit *exd.Transform
		t.do("exd.Fit", func() {
			fit, err = exd.Fit(a, exd.Params{L: min(serveAtoms, a.Cols), Epsilon: epsilon, Workers: mat.Workers, Seed: cfg.seed})
		})
		if err != nil {
			return err
		}
		d = fit.D
		var srv *serve.Server
		t.do("serve.New", func() { srv, err = serve.New(map[string]*mat.Dense{serveDict: d.Clone()}, serve.Config{}) })
		if err != nil {
			return err
		}
		var h *serve.Handle
		t.do("serve.Start", func() { h, err = serve.Start("127.0.0.1:0", srv) })
		if err != nil {
			srv.Close()
			return err
		}
		handles = append(handles, h)
		return nil
	})
	if err != nil {
		_ = closeAll(handles) // the set-up error is the one to report
		return outcome{}, err
	}
	h := handles[len(handles)-1]
	if err := closeAll(handles[:len(handles)-1]); err != nil {
		_ = h.Close() // the first close error is the one to report
		return outcome{}, err
	}

	var rounds, tracedRounds []loadtest.Result
	sent, failed := 0, 0
	tm, err := measure(cfg, t, 1, func(_ int, t *tracer) func() error {
		var res loadtest.Result
		var err error
		t.do("loadtest.Run", func() {
			res, err = loadtest.Run(loadtest.Config{
				BaseURL:      "http://" + h.Addr(),
				Dict:         d,
				Name:         serveDict,
				Clients:      serveClients,
				Requests:     serveRequests,
				Seed:         cfg.seed,
				DenoiseEvery: serveDenoiseEvery,
				Tol:          serveTol,
			})
		})
		return func() error {
			if err != nil {
				return err
			}
			sent += res.Sent
			failed += res.Shed + res.Failed + res.Mismatches
			if res.Mismatches > 0 {
				return fmt.Errorf("%d responses differ bitwise from the serial reference", res.Mismatches)
			}
			if res.OK+res.Shed+res.Failed != res.Sent {
				return fmt.Errorf("ok %d + shed %d + failed %d != sent %d", res.OK, res.Shed, res.Failed, res.Sent)
			}
			if res.OK == 0 {
				return fmt.Errorf("no request succeeded (shed %d, failed %d)", res.Shed, res.Failed)
			}
			if t == nil {
				rounds = append(rounds, res)
			} else {
				tracedRounds = append(tracedRounds, res)
			}
			return nil
		}
	})
	stats := h.Server().Stats()
	if cerr := h.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return outcome{attempted: max(sent, 1), failed: max(failed, 1)}, err
	}

	p50 := make([]float64, len(rounds))
	p99 := make([]float64, len(rounds))
	ok, wall := 0, 0.0
	for i, r := range rounds {
		p50[i], p99[i] = r.P50MS, r.P99MS
		ok += r.OK
		wall += tm.plain[i]
	}
	out := outcome{
		attempted: sent,
		failed:    failed,
		setupS:    setups,
		opP50MS:   median(p50),
		opsPerS:   float64(ok) / wall,
	}
	if t == nil {
		return out, nil
	}
	last := tracedRounds[len(tracedRounds)-1]
	var panels int64
	for _, sh := range stats.Dicts {
		panels += sh.Batches
	}
	shed, failedReq := 0, 0
	for _, r := range append(rounds, tracedRounds...) {
		shed += r.Shed
		failedReq += r.Failed
	}
	panelUS := panelProbe(t, d, last.MeanBatch, cfg.seed)
	out.layer = map[string]float64{
		"serve.mean_batch":    last.MeanBatch,
		"serve.panels":        float64(panels),
		"serve.shed":          float64(shed),
		"serve.failed":        float64(failedReq),
		"serve.p99_ms":        median(p99),
		"omp.panel_us":        panelUS,
		"serve.overhead_ms":   out.opP50MS - panelUS/1e3,
		"loadgen.marshal_us":  marshalProbe(t, d, cfg.seed),
		"trace.overhead_frac": tm.overhead(),
	}
	return out, nil
}

// signals draws n signals the way the load generator does: three atoms of
// d with weights in [0.5, 1.5) plus small dense noise.
func signals(d *mat.Dense, n int, seed uint64) [][]float64 {
	r := rng.New(seed)
	out := make([][]float64, n)
	for i := range out {
		sig := make([]float64, d.Rows)
		for a := 0; a < 3; a++ {
			j := r.Intn(d.Cols)
			c := 0.5 + r.Float64()
			for row := range sig {
				sig[row] += c * d.At(row, j)
			}
		}
		for row := range sig {
			sig[row] += 0.01 * r.NormFloat64()
		}
		out[i] = sig
	}
	return out
}

// panelProbe times omp's batch entry on its own: BatchCoder.EncodePanel on
// panels of the served run's mean size, with the served dictionary and
// tolerance, in microseconds per panel.
func panelProbe(t *tracer, d *mat.Dense, meanBatch float64, seed uint64) float64 {
	bc := omp.NewBatchCoder(d)
	panel := signals(d, max(1, int(math.Round(meanBatch))), seed)
	return probe(t, "omp.BatchCoder.EncodePanel", 0.5, func() {
		bc.EncodePanel(panel, serveTol, 0, mat.Workers)
	})
}

// marshalProbe times the load generator's own work per request, which
// shares the cores with the server: marshalling the request and decoding
// an encode response, in microseconds.
func marshalProbe(t *tracer, d *mat.Dense, seed uint64) float64 {
	sig := signals(d, 1, seed)[0]
	code := omp.NewBatchCoder(d).Encode(sig, serveTol, 0, &omp.Workspace{})
	resp, err := json.Marshal(serve.EncodeResponse{Dict: serveDict, Batch: 1,
		Idx: code.Idx, Coef: code.Coef, Resid2: code.Resid2, Iters: code.Iters})
	if err != nil {
		return math.NaN()
	}
	var failed bool
	us := probe(t, "loadgen.marshal", 0.3, func() {
		_, err := json.Marshal(&serve.EncodeRequest{Dict: serveDict, Signal: sig})
		var got serve.EncodeResponse
		if err != nil || json.Unmarshal(resp, &got) != nil {
			failed = true
		}
	})
	if failed {
		return math.NaN()
	}
	return us
}
