package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"

	"extdict/internal/exd"
	"extdict/internal/mat"
	"extdict/internal/omp"
	"extdict/internal/rng"
)

// FuzzCodeHandlers asserts the POST /v1/encode and /v1/denoise contract for
// arbitrary bodies: the handler never panics, answers only 200, 400, 404,
// 429 or 503, and every 200 decodes and matches a serial BatchCoder.Encode
// of the same signal bit for bit. It also checks the handler's claim that a
// body which decodes carries only finite numbers. The reference decoder is
// encoding/json, independent of the handler's wire codec.
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
	// Bodies json.Decoder let through and the wire codec refuses with 400:
	// bytes after the object, a body over the cap, a member name that
	// matches only by Unicode folding, and a null signal element.
	f.Add(false, []byte(`{"dict":"d","signal":[0.5,-1,0.25,2,0,1e-3]} {}`))
	f.Add(true, append(append([]byte{}, valid...), bytes.Repeat([]byte(" "), codeBodyCap(d.Rows))...))
	f.Add(false, []byte(`{"ſignal":[0.5,-1,0.25,2,0,1e-3]}`))
	f.Add(true, []byte(`{"signal":[0.5,null,0.25,2,0,1e-3]}`))
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

// FuzzReload asserts the POST /v1/reloadz contract for arbitrary bodies
// and dictionary names: the handler never panics and answers only 200, 400
// or 404. A rejection leaves the published epoch alone. Every 200
// publishes the next epoch with finite entries and every column of norm 1
// or 0, and no column that is nonzero in the body is published as zeros:
// a reload can never hand the coder a NaN or dead atom.
func FuzzReload(f *testing.F) {
	d := unitDictionary(rng.New(67), 3, 4)
	srv, err := New(map[string]*mat.Dense{"d": d}, Config{})
	if err != nil {
		f.Fatalf("New: %v", err)
	}
	f.Cleanup(srv.Close)

	// reload is a transform body whose dictionary has the given rows and
	// entries, row-major.
	reload := func(rows int, vals ...float64) []byte {
		return transformBody(f, mat.NewDenseData(rows, len(vals)/rows, vals))
	}
	valid := transformBody(f, d)
	f.Add("d", valid)
	f.Add("", valid)
	f.Add("nope", valid)                                      // unknown dictionary
	f.Add("d", valid[:len(valid)/2])                          // truncated transform
	f.Add("d", []byte("1,0\n0,1\n0,0\n"))                     // not a transform
	f.Add("d", reload(3, 1, 0, 0, 1, 0, 0))                   // a valid 3×2 replacement
	f.Add("d", reload(3, 1, 0, 0, 0, 0, 0))                   // an all-zero column
	f.Add("d", reload(3, math.Inf(1), 0, 0, 1, 0, 0))         // Inf entry
	f.Add("d", reload(3, 1e200, 0, 1e200, 1, 0, 0))           // ‖column‖² overflows
	f.Add("d", reload(3, 2e-162, 0, 0, 1, 0, 0))              // ‖column‖² subnormal
	f.Add("d", reload(3, 1e-170, 0, 0, 1, 0, 0))              // ‖column‖² underflows to 0
	f.Add("d", reload(4, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0)) // wrong row count
	f.Add("d", reload(3, math.NaN(), 0, 0, 1, 0, 0))          // NaN entry
	f.Fuzz(func(t *testing.T, dict string, body []byte) {
		before, err := srv.Epoch("d")
		if err != nil {
			t.Fatal(err)
		}
		q := url.Values{"dict": {dict}}
		rec := httptest.NewRecorder()
		srv.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/reloadz?"+q.Encode(), bytes.NewReader(body)))

		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusNotFound:
			var er ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("status %d without an error body: %q", rec.Code, rec.Body.Bytes())
			}
			if after, _ := srv.Epoch("d"); after != before {
				t.Fatalf("status %d moved the epoch %d -> %d", rec.Code, before, after)
			}
			return
		default:
			t.Fatalf("status %d for dict %q, body %q", rec.Code, dict, body)
		}

		var rl ReloadResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &rl); err != nil {
			t.Fatalf("200 body does not decode: %v: %q", err, rec.Body.Bytes())
		}
		snap := srv.shards["d"].snap.Load()
		pub := snap.dict
		if rl.Epoch != before+1 || snap.epoch != rl.Epoch || rl.Rows != pub.Rows || rl.Cols != pub.Cols {
			t.Fatalf("reload %+v against published %dx%d at epoch %d (was %d)", rl, pub.Rows, pub.Cols, snap.epoch, before)
		}
		// Decode the body the way the handler does.
		tr, err := exd.ReadTransform(bytes.NewReader(body))
		if err != nil {
			t.Fatalf("200 for a body the decoder rejects: %v", err)
		}
		in := tr.D
		for j := 0; j < pub.Cols; j++ {
			var ss float64
			live, wasLive := false, false
			for i := 0; i < pub.Rows; i++ {
				v := pub.At(i, j)
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("published entry (%d,%d) = %v", i, j, v)
				}
				ss += v * v
				live = live || v != 0
				wasLive = wasLive || in.At(i, j) != 0
			}
			if n := math.Sqrt(ss); n != 0 && math.Abs(n-1) > 1e-9 {
				t.Fatalf("published column %d has norm %v, want 1 or 0", j, n)
			}
			if wasLive && !live {
				t.Fatalf("nonzero body column %d published as zeros", j)
			}
		}
	})
}
