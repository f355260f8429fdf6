package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"extdict/internal/cluster/clustertest"
	"extdict/internal/mat"
	"extdict/internal/omp"
	"extdict/internal/rng"
)

// TestSoakEncodeRacingSwapAndDrain is the soak test: concurrent clients
// hammer /v1/encode while the main goroutine hot-swaps the dictionary and
// finally drains the server mid-flight. Run under -race (ci.sh does), it
// proves the snapshot-swap and closed-vs-send protocols.
//
// Invariants checked:
//   - every 200 response is bit-identical to a serial encode against the
//     snapshot (epoch) that coded it — swaps never produce a torn panel;
//   - no request is dropped silently: every send resolves to 200, 429, or
//     (after drain starts) 503;
//   - the shared kernel pool never exceeds its worker budget.
func TestSoakEncodeRacingSwapAndDrain(t *testing.T) {
	const (
		clients   = 8
		perClient = 60
		swaps     = 6
	)
	r := rng.New(2024)
	dicts := []*mat.Dense{
		unitDictionary(r, 16, 40),
		unitDictionary(r, 16, 48),
		unitDictionary(r, 16, 56),
	}
	// Serial reference coder per dictionary; epoch e serves dicts[(e-1)%3].
	refs := make([]*omp.BatchCoder, len(dicts))
	for i, d := range dicts {
		refs[i] = omp.NewBatchCoder(d)
	}

	mat.ResetPoolPeak()
	srv, err := New(map[string]*mat.Dense{"d": dicts[0]}, Config{
		Tol:      0.05,
		BatchMax: 8,
		QueueCap: 1024,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Mux())
	defer ts.Close()

	type outcome struct {
		status    int
		epoch     uint64
		signal    []float64
		iters     int
		resid2    uint64
		idx       []int
		coefBits  []uint64
		transport error
	}
	results := make(chan outcome, clients*perClient)

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		id := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			cr := rng.New(9000 + uint64(id))
			for i := 0; i < perClient; i++ {
				sig := randSignal(cr, 16)
				body, err := json.Marshal(&EncodeRequest{Signal: sig})
				if err != nil {
					results <- outcome{transport: err}
					continue
				}
				resp, err := http.Post(ts.URL+"/v1/encode", "application/json", bytes.NewReader(body))
				if err != nil {
					results <- outcome{transport: err}
					continue
				}
				payload, err := io.ReadAll(resp.Body)
				_ = resp.Body.Close()
				if err != nil {
					results <- outcome{transport: err}
					continue
				}
				o := outcome{status: resp.StatusCode, signal: sig}
				if resp.StatusCode == http.StatusOK {
					var er EncodeResponse
					if err := json.Unmarshal(payload, &er); err != nil {
						o.transport = err
					} else {
						o.epoch = er.Epoch
						o.iters = er.Iters
						o.resid2 = math.Float64bits(er.Resid2)
						o.idx = er.Idx
						o.coefBits = make([]uint64, len(er.Coef))
						for k, v := range er.Coef {
							o.coefBits[k] = math.Float64bits(v)
						}
					}
				}
				results <- o
			}
		}()
	}

	// Race the swaps against the in-flight encodes, then drain mid-traffic.
	for s := 1; s <= swaps; s++ {
		if _, err := srv.Swap("d", dicts[s%len(dicts)].Clone()); err != nil {
			t.Fatalf("swap %d: %v", s, err)
		}
		time.Sleep(500 * time.Microsecond)
	}
	srv.Close()

	clustertest.Watchdog(t, func() { wg.Wait() })
	close(results)

	counts := map[int]int{}
	checked := 0
	ws := &omp.Workspace{}
	for o := range results {
		if o.transport != nil {
			t.Fatalf("transport error: %v", o.transport)
		}
		counts[o.status]++
		if o.status != http.StatusOK {
			continue
		}
		if o.epoch < 1 || o.epoch > swaps+1 {
			t.Fatalf("response names epoch %d outside [1, %d]", o.epoch, swaps+1)
		}
		want := refs[(int(o.epoch)-1)%len(dicts)].Encode(o.signal, 0.05, 0, ws)
		if o.iters != want.Iters || o.resid2 != math.Float64bits(want.Resid2) || len(o.idx) != len(want.Idx) {
			t.Fatalf("epoch %d response differs from serial encode against that epoch's dictionary", o.epoch)
		}
		for k := range want.Idx {
			if o.idx[k] != want.Idx[k] || o.coefBits[k] != math.Float64bits(want.Coef[k]) {
				t.Fatalf("epoch %d coef/idx differ from serial encode", o.epoch)
			}
		}
		checked++
	}
	total := 0
	for status, n := range counts {
		if status != http.StatusOK && status != http.StatusTooManyRequests && status != http.StatusServiceUnavailable {
			t.Fatalf("unexpected status %d (%d requests): no request may fail outside 200/429/503", status, n)
		}
		total += n
	}
	if total != clients*perClient {
		t.Fatalf("accounted for %d requests, sent %d", total, clients*perClient)
	}
	if checked == 0 {
		t.Fatal("no 200s survived the soak; nothing was verified")
	}
	if peak, budget := mat.PoolPeakWorkers(), mat.PoolBudget(); peak > budget {
		t.Fatalf("pool peak %d exceeded budget %d", peak, budget)
	}
}
