package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"extdict/internal/mat"
	"extdict/internal/omp"
	"extdict/internal/rng"
)

// FuzzCodeHandlers asserts the POST /v1/encode and /v1/denoise contract for
// arbitrary bodies: the handler never panics, answers only 200, 400, 404,
// 429 or 503, and every 200 decodes and matches a serial BatchCoder.Encode
// of the same signal bit for bit. It also checks the handler's claim that a
// body which decodes carries only finite numbers.
func FuzzCodeHandlers(f *testing.F) {
	const tol = 0.1
	d := unitDictionary(rng.New(61), 6, 12)
	srv, err := New(map[string]*mat.Dense{"d": d}, Config{Tol: tol})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	f.Cleanup(srv.Close)
	ref := omp.NewBatchCoder(d)

	valid := []byte(`{"dict":"d","signal":[0.5,-1,0.25,2,0,1e-3]}`)
	f.Add(false, valid)
	f.Add(true, valid)
	f.Add(false, []byte(`{"signal":[1,2,3]}`))                     // wrong signal length
	f.Add(true, []byte(`{}`))                                      // no signal
	f.Add(false, []byte(`{"dict":"nope","signal":[1,2,3,4,5,6]}`)) // unknown dict
	f.Add(false, []byte(`{"signal":[1e400,0,0,0,0,0]}`))           // beyond float64
	f.Add(true, []byte(`{"signal":[1e200,1e200,0,0,0,0]}`))        // ‖a‖² overflows
	f.Fuzz(func(t *testing.T, denoise bool, body []byte) {
		path := "/v1/encode"
		if denoise {
			path = "/v1/denoise"
		}
		rec := httptest.NewRecorder()
		srv.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))

		// Decode the body the way the handler does: the first JSON value.
		var in EncodeRequest
		decodeErr := json.NewDecoder(bytes.NewReader(body)).Decode(&in)
		if decodeErr == nil {
			for i, v := range in.Signal {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("decoded signal[%d] = %v: decode success must imply a finite signal", i, v)
				}
			}
		}

		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("status %d without an error body: %q", rec.Code, rec.Body.Bytes())
			}
			return
		default:
			t.Fatalf("status %d for body %q", rec.Code, body)
		}

		if decodeErr != nil {
			t.Fatalf("200 for a body the decoder rejects: %v", decodeErr)
		}
		want := ref.Encode(in.Signal, tol, 0, &omp.Workspace{})
		if !denoise {
			var got EncodeResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
				t.Fatalf("200 body does not decode: %v: %q", err, rec.Body.Bytes())
			}
			if got.Dict != "d" || got.Epoch != 1 || got.Batch < 1 {
				t.Fatalf("metadata: %+v", got)
			}
			sameResult(t, got, want)
			return
		}
		var got DenoiseResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("200 body does not decode: %v: %q", err, rec.Body.Bytes())
		}
		if got.Iters != want.Iters || math.Float64bits(got.Resid2) != math.Float64bits(want.Resid2) {
			t.Fatalf("denoise code differs from serial encode: %+v vs %+v", got, want)
		}
		wantY := reconstruct(d, want)
		if len(got.Denoised) != len(wantY) {
			t.Fatalf("denoised length %d, want %d", len(got.Denoised), len(wantY))
		}
		for i := range wantY {
			if math.Float64bits(got.Denoised[i]) != math.Float64bits(wantY[i]) {
				t.Fatalf("denoised[%d] bits differ: got %v want %v", i, got.Denoised[i], wantY[i])
			}
		}
	})
}
