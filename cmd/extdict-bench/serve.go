package main

import (
	"fmt"
	"strings"

	"extdict/internal/mat"
	"extdict/internal/rng"
	"extdict/internal/serve"
	"extdict/internal/serve/loadtest"
)

// serveClients is the concurrency of the serving benchmark: 8 closed-loop
// clients, the level the PR9 acceptance gate fixes.
const serveClients = 8

// runServe benchmarks the serving layer end to end: a real listener on a
// loopback port, 8 concurrent seeded clients, every response verified bit
// for bit against a serial encode. Metrics carry the latency percentiles
// and the achieved batch-size distribution; any bit mismatch fails the
// experiment rather than reporting a number.
func runServe(c benchConfig) (artifact, error) {
	m := 64
	l := int(256 * c.Scale)
	if l < 2*m {
		l = 2 * m
	}
	r := rng.New(c.Seed)
	d := mat.NewDense(m, l)
	for i := range d.Data {
		d.Data[i] = r.NormFloat64()
	}
	d.NormalizeColumns()

	srv, err := serve.New(map[string]*mat.Dense{"bench": d.Clone()}, serve.Config{
		Tol:      0.05,
		BatchMax: 32,
		QueueCap: 4096,
		Workers:  c.Workers,
	})
	if err != nil {
		return artifact{}, err
	}
	h, err := serve.Start("127.0.0.1:0", srv)
	if err != nil {
		srv.Close()
		return artifact{}, err
	}
	res, runErr := loadtest.Run(loadtest.Config{
		BaseURL:      "http://" + h.Addr(),
		Dict:         d,
		Name:         "bench",
		Clients:      serveClients,
		Requests:     50,
		Seed:         c.Seed,
		DenoiseEvery: 10,
		Tol:          0.05,
	})
	if cerr := h.Close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	if runErr != nil {
		return artifact{}, runErr
	}
	if res.Mismatches > 0 {
		return artifact{}, fmt.Errorf("serve: %d responses differed bitwise from the serial reference", res.Mismatches)
	}
	if res.OK == 0 {
		return artifact{}, fmt.Errorf("serve: no successful responses (shed %d, failed %d)", res.Shed, res.Failed)
	}

	metrics := map[string]float64{
		"clients":         float64(serveClients),
		"requests":        float64(res.Sent),
		"ok":              float64(res.OK),
		"shed":            float64(res.Shed),
		"latency_p50_ms":  res.P50MS,
		"latency_p99_ms":  res.P99MS,
		"latency_mean_ms": res.MeanMS,
		"latency_max_ms":  res.MaxMS,
		"mean_batch":      res.MeanBatch,
		"max_batch":       float64(res.MaxBatch),
	}
	for b1, n := range res.BatchHist {
		if n > 0 {
			metrics[fmt.Sprintf("batch_hist_%d", b1+1)] = float64(n)
		}
	}
	return artifact{Table: serveTable(m, l, res), Metrics: metrics}, nil
}

// serveTable renders the serving benchmark's human-readable summary.
func serveTable(m, l int, res loadtest.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Serving: %d clients, %dx%d dictionary, batch coalescing\n", serveClients, m, l)
	fmt.Fprintf(&b, "%-12s %-8s %-8s %-10s %-10s %-10s %-10s\n",
		"requests", "ok", "shed", "p50-ms", "p99-ms", "mean-batch", "max-batch")
	fmt.Fprintf(&b, "%-12s %-8s %-8s %-10s %-10s %-10s %-10s\n",
		"---", "---", "---", "---", "---", "---", "---")
	fmt.Fprintf(&b, "%-12d %-8d %-8d %-10.3f %-10.3f %-10.2f %-10d\n",
		res.Sent, res.OK, res.Shed, res.P50MS, res.P99MS, res.MeanBatch, res.MaxBatch)
	return b.String()
}
