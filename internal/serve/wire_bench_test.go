package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"extdict/internal/rng"
)

// The wire codec beside the encoding/json path it replaced, in the same
// binary, on perfbench serve's shapes: a 128-float cancercell signal in,
// a code of a few atoms out.

var decodeSink EncodeRequest

func BenchmarkDecodeRequest(b *testing.B) {
	body, err := json.Marshal(&EncodeRequest{Dict: "cancercell", Signal: randSignal(rng.New(1), 128)})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("wire", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if decodeSink, err = decodeRequest(body, 128); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			decodeSink = EncodeRequest{}
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&decodeSink); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkWriteEncodeResponse(b *testing.B) {
	r := rng.New(2)
	resp := EncodeResponse{Dict: "cancercell", Epoch: 1, Batch: 1,
		Idx: []int{17, 203, 88, 5}, Coef: randSignal(r, 4), Resid2: 0.0123456789, Iters: 4}
	name, err := json.Marshal(resp.Dict)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("wire", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = appendEncodeResponse(buf[:0], name, &resp)
			if _, err := io.Discard.Write(buf); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := json.NewEncoder(io.Discard).Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
}
