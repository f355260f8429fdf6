package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"extdict/internal/mat"
	"extdict/internal/rng"
)

// sameRequest fails unless the codec's decode of body equals encoding/json's
// Unmarshal of it: the same Dict, a Signal nil exactly when Unmarshal's is,
// and the same entries bit for bit.
func sameRequest(t *testing.T, body []byte, got EncodeRequest) {
	t.Helper()
	var want EncodeRequest
	if err := json.Unmarshal(body, &want); err != nil {
		t.Fatalf("codec accepted %q, json.Unmarshal refuses it: %v", body, err)
	}
	if got.Dict != want.Dict {
		t.Fatalf("%q: dict %q, encoding/json %q", body, got.Dict, want.Dict)
	}
	if (got.Signal == nil) != (want.Signal == nil) || len(got.Signal) != len(want.Signal) {
		t.Fatalf("%q: signal %v (nil %v), encoding/json %v (nil %v)", body,
			got.Signal, got.Signal == nil, want.Signal, want.Signal == nil)
	}
	for i := range want.Signal {
		if math.Float64bits(got.Signal[i]) != math.Float64bits(want.Signal[i]) {
			t.Fatalf("%q: signal[%d] = %v, encoding/json %v", body, i, got.Signal[i], want.Signal[i])
		}
	}
}

// FuzzDecodeRequest holds the codec to encoding/json: whenever it accepts a
// body, json.Unmarshal accepts it too and decodes the same request.
func FuzzDecodeRequest(f *testing.F) {
	for _, body := range acceptedBodies {
		f.Add([]byte(body))
	}
	for _, body := range refusedBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		if in, err := decodeRequest(body, 4); err == nil {
			sameRequest(t, body, in)
		}
	})
}

// acceptedBodies are valid encodings the codec must accept, each decoding
// as encoding/json decodes it.
var acceptedBodies = []string{
	`{"dict":"d","signal":[0.5,-1,0.25]}`,
	`{"signal":[0.5,-1,0.25],"dict":"d"}`,                        // member order
	" \t\r\n{ \"dict\" : \"d\" ,\n\t\"signal\" : [ 1 , 2 ] }\n ", // whitespace
	`{"DICT":"d","Signal":[1]}`,                                  // ASCII case
	`{"dIcT":"d","SIGNAL":[1]}`,
	`{"dict":"a","dict":"b","signal":[1,2,3],"signal":[4]}`,          // the last duplicate wins
	`{"signal":[1,2],"signal":[]}`,                                   // ... and an empty array is not null
	`{"signal":[1,2],"signal":null}`,                                 // ... and null clears
	`{"dict":"a","dict":null}`,                                       // null keeps a string
	`{"dict":null,"signal":null}`,                                    // null members
	`{"x":{"y":[1,{"z":null},"s",true,false,-0.5e+3]},"signal":[1]}`, // unknown, nested
	`{"x":[[[[]]]],"y":{},"z":"\u00e9\n\"","signal":[2]}`,
	`{"dict":"caf\u00e9","signal":[1]}`, // escaped dict name
	`{"dict":"café","signal":[1]}`,      // non-ASCII dict name
	`{"dict":"a\"b\\c\/d\b\f\n\r\t","signal":[1]}`,
	`{"dict":"\ud83d\ude00 \ud800","signal":[1]}`, // surrogate pair and a lone surrogate
	"{\"dict\":\"bad \xff utf-8\",\"signal\":[1]}",
	`{"sig\u006eal":[3],"\u0064ict":"e"}`,                     // escaped member names
	"{\"\u212Aelvin\":1,\"ſ\":2,\"SIGNAſ\":3,\"signal\":[1]}", // non-ASCII names matching nothing
	`{"signal":[-0,0,1E5,1e-7,1.5e+2,-2.25E-3,0.000001,1e21]}`,
	`{"signal":[1e-400,-1e-400,4.9e-324,1.7976931348623157e308]}`, // underflow is not an error
	`{"signal":[123456789012345678901234567890,0.1000000000000000055511151231257827]}`,
	`{}`,
	`null`,
	` null `,
}

// refusedBodies are bodies the codec must refuse: malformed JSON, values of
// the wrong type, numbers outside the JSON grammar or the float64 range,
// and the four kinds encoding/json's Decoder let through.
var refusedBodies = []string{
	``,
	` `,
	`[]`,
	`"signal"`,
	`1`,
	`{`,
	`{"signal":[1,2]`,
	`{"signal":[1,2}`,
	`{"signal":[1,,2]}`,
	`{"signal":[1,2,]}`,
	`{"signal":[1 2]}`,
	`{signal:[1]}`,
	`{'signal':[1]}`,
	`{"signal" [1]}`,
	`{"signal":[1]`,
	`{"signal":[1]},`,
	`{"signal":[1]} {}`,                  // bytes after the object
	`{"signal":[1]}x`,                    // ...
	"{\"signal\":[1]}\x00",               // ...
	`nullx`,                              // ...
	`{"ſignal":[1]}`,                     // a name encoding/json folds to "signal"
	`{"ſIGNAL":[1]}`,                     // ...
	`{"signal":[1,null,2]}`,              // a null element
	`{"signal":[null]}`,                  // ...
	`{"signal":[1e400]}`,                 // outside the float64 range
	`{"signal":[-1e309]}`,                // ...
	`{"signal":[Infinity]}`,              // not JSON numbers
	`{"signal":[NaN]}`,                   // ...
	`{"signal":[Inf]}`,                   // ...
	`{"signal":[0x1p3]}`,                 // ...
	`{"signal":[1_0]}`,                   // ...
	`{"signal":[.5]}`,                    // ...
	`{"signal":[5.]}`,                    // ...
	`{"signal":[+1]}`,                    // ...
	`{"signal":[01]}`,                    // ...
	`{"signal":[-]}`,                     // ...
	`{"signal":[1e]}`,                    // ...
	`{"signal":[1e+]}`,                   // ...
	`{"signal":["1"]}`,                   // wrong types
	`{"signal":[[1]]}`,                   // ...
	`{"signal":[true]}`,                  // ...
	`{"signal":{"0":1}}`,                 // ...
	`{"signal":"1,2"}`,                   // ...
	`{"signal":1}`,                       // ...
	`{"dict":1,"signal":[1]}`,            // ...
	`{"dict":["d"],"signal":[1]}`,        // ...
	`{"dict":true,"signal":[1]}`,         // ...
	`{"dict":"d` + "\n" + `"}`,           // a control byte in a string
	`{"dict":"\x"}`,                      // a bad escape
	`{"dict":"\u12"}`,                    // ...
	`{"dict":"\u12G4"}`,                  // ...
	`{"dict":"abc`,                       // unterminated
	`{"x":[1,2,{"y":tru}],"signal":[1]}`, // bad literals in skipped values
	`{"x":nul}`,                          // ...
	`{"x":fals}`,                         // ...
	`{"x":{"y" 1}}`,                      // ...
	`{"x":{1:2}}`,                        // ...
	`{"x":[1 2]}`,                        // ...
	`{"x":+1}`,                           // ...
}

func TestDecodeRequestAcceptsValidEncodings(t *testing.T) {
	for _, body := range acceptedBodies {
		in, err := decodeRequest([]byte(body), 4)
		if err != nil {
			t.Fatalf("decodeRequest(%q): %v", body, err)
		}
		sameRequest(t, []byte(body), in)
	}
}

func TestDecodeRequestRefuses(t *testing.T) {
	for _, body := range refusedBodies {
		if in, err := decodeRequest([]byte(body), 4); err == nil {
			t.Errorf("decodeRequest(%q) = %+v, want an error", body, in)
		}
	}
	// The nesting limit is encoding/json's: 10000 containers, the request
	// object included.
	nest := func(depth int) []byte {
		return []byte(`{"x":` + strings.Repeat("[", depth-1) + strings.Repeat("]", depth-1) + `}`)
	}
	if _, err := decodeRequest(nest(maxWireDepth), 4); err != nil {
		t.Fatalf("depth %d: %v", maxWireDepth, err)
	}
	if err := json.Unmarshal(nest(maxWireDepth), new(EncodeRequest)); err != nil {
		t.Fatalf("encoding/json refuses depth %d: %v", maxWireDepth, err)
	}
	if _, err := decodeRequest(nest(maxWireDepth+1), 4); err == nil {
		t.Fatalf("depth %d accepted", maxWireDepth+1)
	}
}

func TestDecodeRequestAllocations(t *testing.T) {
	// A warm decode of a served-size body allocates the signal and the
	// dictionary name, nothing else.
	r := rng.New(3)
	body, err := json.Marshal(&EncodeRequest{Dict: "cancercell", Signal: randSignal(r, 128)})
	if err != nil {
		t.Fatal(err)
	}
	var in EncodeRequest
	allocs := testing.AllocsPerRun(50, func() {
		in, err = decodeRequest(body, 128)
	})
	if err != nil || len(in.Signal) != 128 {
		t.Fatalf("decode: %v, %d entries", err, len(in.Signal))
	}
	if allocs > 2 {
		t.Fatalf("warm decodeRequest made %v allocations, want 2 (the signal and the dict string)", allocs)
	}
}

// responseFloats cover encoding/json's float formatting: both sides of its
// 1e-6 and 1e21 switch between %f and %e, signed zeros, the extremes of the
// normal and subnormal ranges, and exponents of one, two and three digits.
var responseFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 2.5, 123456.789,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6, 9.99e-7,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21, 1e20,
	1e-7, 1e-10, 1e-100, 1e22, 1e100, 1e300,
	math.MaxFloat64, -math.MaxFloat64, 0x1p-1022, -0x1p-1022,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.5e-320,
}

// wireName is the dictionary name as the shard encodes it.
func wireName(t *testing.T, name string) []byte {
	t.Helper()
	b, err := json.Marshal(name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// encodeJSON is what writeJSON would have written for v.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestResponsesMatchEncodingJSON(t *testing.T) {
	names := []string{"d", "cancercell", `<a&b>`, "q\"uote\\", "tab\tnl\n", "\u2028\u2029", "café", "bad \xff utf-8", ""}
	r := rng.New(5)
	random := make([]float64, 200)
	for i := range random {
		random[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(60)-30))
	}
	idx := []int{0, 7, 1 << 40, -3}
	for _, name := range names {
		dict := wireName(t, name)
		cases := []EncodeResponse{
			{Dict: name}, // nil Idx and Coef: a zero signal's code
			{Dict: name, Idx: []int{}, Coef: []float64{}}, // empty, not nil
			{Dict: name, Epoch: math.MaxUint64, Batch: 32, Iters: 3, Resid2: 1e-7, Idx: idx, Coef: responseFloats[:4]},
			{Dict: name, Epoch: 2, Batch: 1, Iters: 9, Resid2: math.MaxFloat64, Idx: idx, Coef: responseFloats},
			{Dict: name, Epoch: 1, Batch: 1, Iters: 200, Resid2: 0.5, Coef: random},
		}
		for _, f := range responseFloats {
			cases = append(cases, EncodeResponse{Dict: name, Epoch: 1, Batch: 1, Iters: 1, Resid2: f, Idx: []int{1}, Coef: []float64{f}})
		}
		for _, resp := range cases {
			if got, want := appendEncodeResponse(nil, dict, &resp), encodeJSON(t, resp); !bytes.Equal(got, want) {
				t.Fatalf("encode response:\n got %q\nwant %q", got, want)
			}
			den := DenoiseResponse{Dict: resp.Dict, Epoch: resp.Epoch, Batch: resp.Batch,
				Denoised: resp.Coef, Resid2: resp.Resid2, Iters: resp.Iters}
			if got, want := appendDenoiseResponse(nil, dict, &den), encodeJSON(t, den); !bytes.Equal(got, want) {
				t.Fatalf("denoise response:\n got %q\nwant %q", got, want)
			}
		}
	}
}

func TestHandlerResponsesMatchEncodingJSON(t *testing.T) {
	// The live 200 bodies, zero signal included, re-encode to themselves
	// through encoding/json and declare their length.
	r := rng.New(6)
	d := unitDictionary(r, 8, 16)
	srv, err := New(map[string]*mat.Dense{"<d&>": d}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	for i, sig := range [][]float64{make([]float64, 8), randSignal(r, 8), randSignal(r, 8)} {
		body, err := json.Marshal(EncodeRequest{Signal: sig})
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range []string{"/v1/encode", "/v1/denoise"} {
			rec := httptest.NewRecorder()
			srv.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("signal %d %s: status %d: %s", i, path, rec.Code, rec.Body.Bytes())
			}
			var resp any = &EncodeResponse{}
			if path == "/v1/denoise" {
				resp = &DenoiseResponse{}
			}
			if err := json.Unmarshal(rec.Body.Bytes(), resp); err != nil {
				t.Fatalf("signal %d %s: %v", i, path, err)
			}
			if want := encodeJSON(t, resp); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("signal %d %s:\n got %q\nwant %q", i, path, rec.Body.Bytes(), want)
			}
			if i == 0 && path == "/v1/encode" && !bytes.Contains(rec.Body.Bytes(), []byte(`"idx":null,"coef":null`)) {
				t.Fatalf("zero signal: %q, want null idx and coef", rec.Body.Bytes())
			}
			if got, want := rec.Header().Get("Content-Length"), fmt.Sprint(rec.Body.Len()); got != want {
				t.Fatalf("signal %d %s: Content-Length %q, body %s bytes", i, path, got, want)
			}
			if got := rec.Header().Get("Content-Type"); got != "application/json" {
				t.Fatalf("Content-Type %q", got)
			}
		}
	}
}

func TestEncodeBodyCap(t *testing.T) {
	// A valid request padded to exactly the cap is served; one byte more
	// is a 400 with an error body, on both routes, and no buffer larger
	// than the cap reaches the pool.
	r := rng.New(8)
	srv, err := New(map[string]*mat.Dense{
		"small": unitDictionary(r, 4, 8),
		"big":   unitDictionary(r, 8, 16),
	}, Config{})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer srv.Close()
	if want := bodyBytesPerEntry*8 + bodySlackBytes; srv.bodyCap != want {
		t.Fatalf("body cap %d, want %d from the largest M", srv.bodyCap, want)
	}
	valid, err := json.Marshal(EncodeRequest{Dict: "big", Signal: randSignal(r, 8)})
	if err != nil {
		t.Fatal(err)
	}
	padded := func(n int) []byte {
		return append(append([]byte{}, valid...), bytes.Repeat([]byte(" "), n-len(valid))...)
	}
	for _, path := range []string{"/v1/encode", "/v1/denoise"} {
		for _, tc := range []struct {
			size int
			want int
		}{{srv.bodyCap, http.StatusOK}, {srv.bodyCap + 1, http.StatusBadRequest}} {
			rec := httptest.NewRecorder()
			srv.Mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(padded(tc.size))))
			if rec.Code != tc.want {
				t.Fatalf("%s, %d-byte body: status %d, want %d: %s", path, tc.size, rec.Code, tc.want, rec.Body.Bytes())
			}
			if tc.want != http.StatusOK {
				var er ErrorResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error, "too large") {
					t.Fatalf("%s over the cap: error body %q", path, rec.Body.Bytes())
				}
			}
			// sync.Pool may drop what was put; whatever it hands back
			// must fit the cap.
			for i := 0; i < 4; i++ {
				if b, ok := srv.bufs.Get().(*[]byte); ok && cap(*b) > srv.bodyCap {
					t.Fatalf("%s: pooled buffer of %d bytes, cap %d", path, cap(*b), srv.bodyCap)
				}
			}
		}
	}
}

// trickle hands out its data step bytes per Read, as a slow connection
// does, then io.EOF.
type trickle struct {
	data []byte
	step int
}

func (tr *trickle) Read(p []byte) (int, error) {
	if len(tr.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), tr.step)], tr.data)
	tr.data = tr.data[n:]
	return n, nil
}

func TestReadBodyStaysUnderTheLimit(t *testing.T) {
	// Whatever the body size, read granularity and starting buffer, the
	// buffer never grows past the limit and a longer body fails with
	// http.MaxBytesReader's error.
	const limit = 1000
	for _, size := range []int{0, 1, 511, 512, 513, 999, limit, limit + 1, 5000} {
		data := make([]byte, size)
		for i := range data {
			data[i] = byte(i % 251)
		}
		for _, step := range []int{1, 7, 4096} {
			for _, start := range [][]byte{nil, make([]byte, 0, 512), make([]byte, 3, limit)} {
				body := http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(&trickle{data: data, step: step}), limit)
				got, err := readBody(body, start, limit)
				what := fmt.Sprintf("size %d, step %d, start cap %d", size, step, cap(start))
				if cap(got) > limit {
					t.Fatalf("%s: buffer grew to %d bytes, limit %d", what, cap(got), limit)
				}
				if size > limit {
					var tooLarge *http.MaxBytesError
					if !errors.As(err, &tooLarge) {
						t.Fatalf("%s: err %v, want *http.MaxBytesError", what, err)
					}
					continue
				}
				if err != nil || !bytes.Equal(got, data) {
					t.Fatalf("%s: read %d bytes, err %v", what, len(got), err)
				}
			}
		}
	}
}
