package loadtest

import (
	"testing"

	"extdict/internal/cluster/clustertest"
	"extdict/internal/mat"
	"extdict/internal/rng"
	"extdict/internal/serve"
)

// unitDictionary returns an M×L dictionary with unit-norm random columns.
func unitDictionary(r *rng.RNG, m, l int) *mat.Dense {
	d := mat.NewDense(m, l)
	for i := range d.Data {
		d.Data[i] = r.NormFloat64()
	}
	d.NormalizeColumns()
	return d
}

// TestLoadAgainstLiveServer runs the full harness against a real listener:
// 8 concurrent clients, seeded streams, every response checked bit for bit.
func TestLoadAgainstLiveServer(t *testing.T) {
	d := unitDictionary(rng.New(42), 24, 64)
	srv, err := serve.New(map[string]*mat.Dense{"d": d.Clone()}, serve.Config{
		Tol:      0.05,
		BatchMax: 16,
		QueueCap: 1024,
	})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	h, err := serve.Start("127.0.0.1:0", srv)
	if err != nil {
		srv.Close()
		t.Fatalf("serve.Start: %v", err)
	}

	var res Result
	clustertest.Watchdog(t, func() {
		res, err = Run(Config{
			BaseURL:      "http://" + h.Addr(),
			Dict:         d,
			Clients:      8,
			Requests:     40,
			Seed:         7,
			DenoiseEvery: 10,
			Tol:          0.05,
		})
	})
	if cerr := h.Close(); cerr != nil {
		t.Fatalf("close: %v", cerr)
	}
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	if res.Sent != 8*40 {
		t.Fatalf("sent %d, want %d", res.Sent, 8*40)
	}
	if res.OK != res.Sent || res.Shed != 0 || res.Failed != 0 {
		t.Fatalf("uncapped run should succeed everywhere: %+v", res)
	}
	if res.Mismatches != 0 {
		t.Fatalf("%d responses differed from the serial reference", res.Mismatches)
	}
	if res.P50MS <= 0 || res.P99MS < res.P50MS || res.MaxMS < res.P99MS {
		t.Fatalf("latency ordering broken: %+v", res)
	}
	if res.MaxBatch < 1 || res.MaxBatch > 16 {
		t.Fatalf("max batch %d outside [1, 16]", res.MaxBatch)
	}
	var coded int64
	for b1, n := range res.BatchHist {
		coded += int64(b1+1) * n
	}
	if coded != int64(res.OK) {
		t.Fatalf("batch histogram codes %d signals, want %d", coded, res.OK)
	}
	if res.MeanBatch < 1 || res.MeanBatch > 16 {
		t.Fatalf("mean batch %v outside [1, 16]", res.MeanBatch)
	}
}

// TestRunValidatesConfig covers the harness's own error paths.
func TestRunValidatesConfig(t *testing.T) {
	if _, err := Run(Config{BaseURL: "http://127.0.0.1:1"}); err == nil {
		t.Fatal("Run without a dictionary should fail")
	}
	d := unitDictionary(rng.New(1), 4, 8)
	if _, err := Run(Config{Dict: d}); err == nil {
		t.Fatal("Run without a BaseURL should fail")
	}
	if _, err := Run(Config{Dict: d, BaseURL: "http://127.0.0.1:1", Clients: 1, Requests: 1}); err == nil {
		t.Fatal("Run against a dead server should report a harness error")
	}
}
