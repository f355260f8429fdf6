package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"extdict/internal/cluster"
	"extdict/internal/cluster/clustertest"
	"extdict/internal/exd"
	"extdict/internal/mat"
	"extdict/internal/omp"
	"extdict/internal/rng"
	"extdict/internal/sparse"
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

// transformBody returns d as a transform file, the body /v1/reloadz takes:
// d is its dictionary, and its C codes one column with no atoms.
func transformBody(t testing.TB, d *mat.Dense) []byte {
	t.Helper()
	tr := &exd.Transform{D: d, C: &sparse.CSC{Rows: d.Cols, Cols: 1, ColPtr: []int{0, 0}}, DictIdx: make([]int, d.Cols)}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatalf("write transform: %v", err)
	}
	return buf.Bytes()
}

// randSignal draws a dense random signal of dimension m.
func randSignal(r *rng.RNG, m int) []float64 {
	sig := make([]float64, m)
	for i := range sig {
		sig[i] = r.NormFloat64()
	}
	return sig
}

// newTestServer builds a server plus an httptest front end and returns both
// with a cleanup-registered shutdown.
func newTestServer(t *testing.T, dicts map[string]*mat.Dense, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(dicts, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(srv.Mux())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

// postJSON marshals v against the URL and returns status plus raw body.
func postJSON(t *testing.T, url string, v any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, buf.Bytes()
}

// sameResult asserts a response code equals the serial reference bit for bit.
func sameResult(t *testing.T, got EncodeResponse, want omp.Result) {
	t.Helper()
	if got.Iters != want.Iters {
		t.Fatalf("iters: got %d want %d", got.Iters, want.Iters)
	}
	if math.Float64bits(got.Resid2) != math.Float64bits(want.Resid2) {
		t.Fatalf("resid2 bits differ: got %v want %v", got.Resid2, want.Resid2)
	}
	if len(got.Idx) != len(want.Idx) {
		t.Fatalf("support size: got %d want %d", len(got.Idx), len(want.Idx))
	}
	for i := range got.Idx {
		if got.Idx[i] != want.Idx[i] {
			t.Fatalf("idx[%d]: got %d want %d", i, got.Idx[i], want.Idx[i])
		}
		if math.Float64bits(got.Coef[i]) != math.Float64bits(want.Coef[i]) {
			t.Fatalf("coef[%d] bits differ: got %v want %v", i, got.Coef[i], want.Coef[i])
		}
	}
}

func TestEncodeBitIdenticalToSerial(t *testing.T) {
	r := rng.New(7)
	d := unitDictionary(r, 24, 60)
	_, ts := newTestServer(t, map[string]*mat.Dense{"d": d}, Config{Tol: 0.05})

	ref := omp.NewBatchCoder(d)
	ws := &omp.Workspace{}
	for i := 0; i < 20; i++ {
		sig := randSignal(r, d.Rows)
		want := ref.Encode(sig, 0.05, 0, ws)
		status, body := postJSON(t, ts.URL+"/v1/encode", EncodeRequest{Signal: sig})
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, body)
		}
		var got EncodeResponse
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatalf("unmarshal: %v", err)
		}
		if got.Dict != "d" || got.Epoch != 1 || got.Batch < 1 {
			t.Fatalf("metadata: %+v", got)
		}
		sameResult(t, got, want)
	}
}

func TestDenoiseMatchesReconstruction(t *testing.T) {
	r := rng.New(11)
	d := unitDictionary(r, 16, 40)
	_, ts := newTestServer(t, map[string]*mat.Dense{"d": d}, Config{Tol: 0.1})

	ref := omp.NewBatchCoder(d)
	sig := randSignal(r, d.Rows)
	want := ref.Encode(sig, 0.1, 0, &omp.Workspace{})
	wantY := reconstruct(d, want)

	status, body := postJSON(t, ts.URL+"/v1/denoise", EncodeRequest{Signal: sig})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var got DenoiseResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(got.Denoised) != len(wantY) {
		t.Fatalf("denoised length %d want %d", len(got.Denoised), len(wantY))
	}
	for i := range wantY {
		if math.Float64bits(got.Denoised[i]) != math.Float64bits(wantY[i]) {
			t.Fatalf("denoised[%d] bits differ: got %v want %v", i, got.Denoised[i], wantY[i])
		}
	}
}

func TestRequestValidation(t *testing.T) {
	r := rng.New(3)
	d1 := unitDictionary(r, 8, 16)
	d2 := unitDictionary(r, 12, 20)
	_, ts := newTestServer(t, map[string]*mat.Dense{"a": d1, "b": d2}, Config{})

	cases := []struct {
		name string
		req  EncodeRequest
		want int
	}{
		{"wrong length", EncodeRequest{Dict: "a", Signal: make([]float64, 5)}, http.StatusBadRequest},
		{"unknown dict", EncodeRequest{Dict: "zzz", Signal: make([]float64, 8)}, http.StatusNotFound},
		{"ambiguous empty name", EncodeRequest{Signal: make([]float64, 8)}, http.StatusNotFound},
	}
	for _, tc := range cases {
		status, body := postJSON(t, ts.URL+"/v1/encode", tc.req)
		if status != tc.want {
			t.Errorf("%s: status %d want %d (%s)", tc.name, status, tc.want, body)
		}
		var er ErrorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body missing: %s", tc.name, body)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/encode", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed JSON: status %d want 400", resp.StatusCode)
	}
}

func TestHealthzAndStatsz(t *testing.T) {
	r := rng.New(5)
	dicts := map[string]*mat.Dense{
		"beta":  unitDictionary(r, 8, 16),
		"alpha": unitDictionary(r, 8, 12),
	}
	_, ts := newTestServer(t, dicts, Config{})

	resp, err := http.Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatalf("healthz: %v", err)
	}
	var h HealthResponse
	err = json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode healthz: %v", err)
	}
	if h.Status != "ok" || len(h.Dicts) != 2 || h.Dicts[0] != "alpha" || h.Dicts[1] != "beta" {
		t.Fatalf("healthz: %+v", h)
	}

	status, _ := postJSON(t, ts.URL+"/v1/encode", EncodeRequest{Dict: "alpha", Signal: randSignal(r, 8)})
	if status != http.StatusOK {
		t.Fatalf("encode status %d", status)
	}

	resp, err = http.Get(ts.URL + "/v1/statsz")
	if err != nil {
		t.Fatalf("statsz: %v", err)
	}
	var st Statsz
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode statsz: %v", err)
	}
	a := st.Dicts["alpha"]
	if a.Accepted != 1 || a.Encoded != 1 || a.Batches != 1 || a.Epoch != 1 {
		t.Fatalf("alpha stats: %+v", a)
	}
	if a.BatchHist[0] != 1 {
		t.Fatalf("batch hist: %v", a.BatchHist)
	}
	if st.Dicts["beta"].Accepted != 0 {
		t.Fatalf("beta stats: %+v", st.Dicts["beta"])
	}
	if st.PoolBudget < 1 || st.BatchMax < 1 {
		t.Fatalf("config echo: %+v", st)
	}
}

// Epoch returns the currently published epoch of one dictionary.
func (s *Server) Epoch(name string) (uint64, error) {
	sh, err := s.shardFor(name)
	if err != nil {
		return 0, err
	}
	return sh.snap.Load().epoch, nil
}

func TestReloadSwapsEpoch(t *testing.T) {
	r := rng.New(9)
	d1 := unitDictionary(r, 10, 24)
	d2 := unitDictionary(r, 10, 30)
	srv, ts := newTestServer(t, map[string]*mat.Dense{"d": d1}, Config{Tol: 0.05})

	// The reference must see exactly what the server sees: d2 re-normalized,
	// same as ReadDict does.
	d2ref := d2.Clone()
	d2ref.NormalizeColumns()
	resp, err := http.Post(ts.URL+"/v1/reloadz?dict=d", "application/octet-stream", bytes.NewReader(transformBody(t, d2)))
	if err != nil {
		t.Fatalf("reloadz: %v", err)
	}
	var rl ReloadResponse
	err = json.NewDecoder(resp.Body).Decode(&rl)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("decode reload: %v", err)
	}
	if rl.Epoch != 2 || rl.Rows != 10 || rl.Cols != 30 {
		t.Fatalf("reload: %+v", rl)
	}

	// Post-swap responses carry the new epoch and the new dictionary's codes.
	ref := omp.NewBatchCoder(d2ref)
	sig := randSignal(r, 10)
	want := ref.Encode(sig, 0.05, 0, &omp.Workspace{})
	status, body := postJSON(t, ts.URL+"/v1/encode", EncodeRequest{Signal: sig})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	var got EncodeResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.Epoch != 2 {
		t.Fatalf("epoch: got %d want 2", got.Epoch)
	}
	sameResult(t, got, want)

	// Rejected bodies answer 400 and the epoch stays put: a mismatched
	// shape, a NaN entry, and columns whose squared norm overflows, which
	// normalizing would publish as a dead (zero or NaN) atom.
	poisoned := func(v float64) *mat.Dense {
		d := d2.Clone()
		d.Set(0, 0, v)
		return d
	}
	for _, tc := range []struct {
		name string
		d    *mat.Dense
	}{
		{"bad shape", unitDictionary(r, 4, 6)},
		{"NaN entry", poisoned(math.NaN())},
		{"Inf entry", poisoned(math.Inf(1))},
		{"overflowing norm", poisoned(1e200)},
	} {
		resp, err = http.Post(ts.URL+"/v1/reloadz?dict=d", "application/octet-stream", bytes.NewReader(transformBody(t, tc.d)))
		if err != nil {
			t.Fatalf("reloadz: %v", err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d want 400", tc.name, resp.StatusCode)
		}
		if epoch, err := srv.Epoch("d"); err != nil || epoch != 2 {
			t.Errorf("%s: epoch %d (%v) after a rejected reload, want 2", tc.name, epoch, err)
		}
	}
}

func TestCloseDrainsAndRejects(t *testing.T) {
	r := rng.New(13)
	d := unitDictionary(r, 8, 16)
	srv, err := New(map[string]*mat.Dense{"d": d}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.Close()
	srv.Close() // idempotent

	sh := srv.shards["d"]
	req := &request{kind: kindEncode, signal: randSignal(r, 8), done: make(chan struct{})}
	if _, err := sh.submit(req); err != ErrClosed {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
	if sh.stats.rejected.Load() != 1 {
		t.Fatalf("rejected counter: %d", sh.stats.rejected.Load())
	}
}

func TestNewValidation(t *testing.T) {
	r := rng.New(1)
	d := unitDictionary(r, 4, 8)
	if _, err := New(nil, Config{}); err == nil {
		t.Fatal("New with no dictionaries should fail")
	}
	if _, err := New(map[string]*mat.Dense{"": d}, Config{}); err == nil {
		t.Fatal("New with empty name should fail")
	}
	if _, err := New(map[string]*mat.Dense{"d": nil}, Config{}); err == nil {
		t.Fatal("New with nil dictionary should fail")
	}
}

func TestModeledLatencyPureAndMonotone(t *testing.T) {
	// One core, so the critical path grows with every queued column and the
	// prediction is strictly monotone in depth.
	plat := cluster.NewPlatform(1, 1)
	prev := 0.0
	for queued := 1; queued <= 128; queued *= 2 {
		a := ModeledLatency(64, 256, queued, 32, 0, plat)
		b := ModeledLatency(64, 256, queued, 32, 0, plat)
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("queued=%d: not reproducible: %v vs %v", queued, a, b)
		}
		if a <= prev {
			t.Fatalf("queued=%d: modeled latency %v not increasing past %v", queued, a, prev)
		}
		prev = a
	}
}

func TestLatencyBudgetSheds(t *testing.T) {
	r := rng.New(21)
	d := unitDictionary(r, 32, 64)
	srv, err := New(map[string]*mat.Dense{"d": d}, Config{
		LatencyBudget: time.Nanosecond, // below any modeled batch cost
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()

	sh := srv.shards["d"]
	req := &request{kind: kindEncode, signal: randSignal(r, 32), done: make(chan struct{})}
	modeled, err := sh.submit(req)
	if err != ErrShedLatency {
		t.Fatalf("submit: %v, want ErrShedLatency", err)
	}
	if modeled <= 0 {
		t.Fatalf("modeled latency %v, want > 0", modeled)
	}
	if sh.stats.shedLatency.Load() != 1 {
		t.Fatalf("shedLatency counter: %d", sh.stats.shedLatency.Load())
	}
}

func TestStartServesAndCloses(t *testing.T) {
	r := rng.New(17)
	d := unitDictionary(r, 8, 16)
	srv, err := New(map[string]*mat.Dense{"d": d}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h, err := Start("127.0.0.1:0", srv)
	if err != nil {
		srv.Close()
		t.Fatalf("Start: %v", err)
	}
	base := fmt.Sprintf("http://%s", h.Addr())
	status, body := postJSON(t, base+"/v1/encode", EncodeRequest{Signal: randSignal(r, 8)})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	if err := h.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get(base + "/v1/healthz"); err == nil {
		t.Fatal("healthz after Close should fail to connect")
	}
}

// TestStartClosesSlowHeaderConnections proves the slowloris bound: a
// connection that sends half a request header and then stalls is closed by
// the server once the header timeout expires, instead of being held open.
func TestStartClosesSlowHeaderConnections(t *testing.T) {
	defer func(d time.Duration) { readHeaderTimeout = d }(readHeaderTimeout)
	readHeaderTimeout = 50 * time.Millisecond

	srv, err := New(map[string]*mat.Dense{"d": unitDictionary(rng.New(19), 8, 16)}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	h, err := Start("127.0.0.1:0", srv)
	if err != nil {
		srv.Close()
		t.Fatalf("Start: %v", err)
	}
	defer func() {
		if err := h.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	conn, err := net.Dial("tcp", h.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/encode HTTP/1.1\r\nHost: x\r\nContent-Type: app"); err != nil {
		t.Fatalf("write half a header: %v", err)
	}
	// The watchdog's deadline is far past the server's: reaching it means
	// the server never closed the stalled connection.
	var n int
	clustertest.Watchdog(t, func() { n, err = conn.Read(make([]byte, 1)) })
	if n != 0 || !errors.Is(err, io.EOF) {
		t.Fatalf("stalled connection read %d bytes, err %v; want the server to close it (EOF)", n, err)
	}
}
