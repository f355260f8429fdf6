package exd

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"extdict/internal/dataset"
	"extdict/internal/rng"
)

func TestTransformSerializationRoundTrip(t *testing.T) {
	u, err := dataset.GenerateUnion(dataset.UnionParams{M: 20, N: 90, Ks: []int{3, 4}}, rng.New(61))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Fit(u.A, Params{L: 40, Epsilon: 0.07, MaxAtoms: 12, Seed: 62, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	n, err := tr.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}

	got, err := ReadTransform(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.L() != tr.L() || got.N() != tr.N() || got.C.NNZ() != tr.C.NNZ() {
		t.Fatal("shape changed through serialization")
	}
	// Workers is host-specific and intentionally not serialized.
	want := tr.Params
	want.Workers = 0
	if got.Params != want || got.OMPIters != tr.OMPIters {
		t.Fatalf("metadata changed: %+v vs %+v", got.Params, want)
	}
	for i := range tr.D.Data {
		if math.Float64bits(tr.D.Data[i]) != math.Float64bits(got.D.Data[i]) {
			t.Fatal("dictionary bits changed")
		}
	}
	for i := range tr.C.Val {
		if tr.C.RowIdx[i] != got.C.RowIdx[i] || tr.C.Val[i] != got.C.Val[i] {
			t.Fatal("coefficients changed")
		}
	}
	for i := range tr.DictIdx {
		if tr.DictIdx[i] != got.DictIdx[i] {
			t.Fatal("provenance changed")
		}
	}
	// The deserialized transform must behave identically.
	if got.RelError(u.A) != tr.RelError(u.A) {
		t.Fatal("reconstruction differs after round trip")
	}
}

// claimHeader returns the 88 bytes of a transform file up to its seed: the
// magic and a header claiming a rows×cols dictionary, with no section
// after it.
func claimHeader(rows, cols int64) []byte {
	b := []byte(transformMagic)
	for _, v := range []int64{rows, cols, cols, 1, 0, cols, 0, 0, 0, 0} {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	return b
}

func TestReadTransformRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC________________________"),
		// Headers claiming a 2 GiB and a 2^59-byte dictionary: the reader
		// must refuse both after allocating no more than the body.
		claimHeader(16384, 16384),
		claimHeader(1<<28, 1<<28),
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadTransform(bytes.NewReader(c))
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrBadTransformFile) {
			t.Fatalf("garbage %q accepted: %v", c, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("a %d-byte input allocated %d bytes", len(c), grew)
		}
	}
}

// FuzzReadTransform holds ReadTransform to its contract on any input: it
// never panics, refuses what it cannot parse with ErrBadTransformFile, and
// WriteTo of a transform it accepts reproduces the input byte for byte.
func FuzzReadTransform(f *testing.F) {
	u, err := dataset.GenerateUnion(dataset.UnionParams{M: 6, N: 10, Ks: []int{2}}, rng.New(67))
	if err != nil {
		f.Fatal(err)
	}
	tr, err := Fit(u.A, Params{L: 4, Epsilon: 0.1, Seed: 68})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(claimHeader(16384, 16384))
	f.Add(claimHeader(1<<28, 1<<28))
	f.Add(append([]byte("NOTMAGIC"), valid[len(transformMagic):]...))
	// Each section cut in its middle: magic, header, ε and seed, D,
	// ColPtr, RowIdx, Val, DictIdx.
	off := 0
	for _, size := range []int{
		len(transformMagic), 8 * 8, 2 * 8, 8 * tr.D.Rows * tr.D.Cols,
		8 * (tr.C.Cols + 1), 8 * tr.C.NNZ(), 8 * tr.C.NNZ(), 8 * tr.D.Cols,
	} {
		f.Add(valid[:off+size/2])
		off += size
	}
	if off != len(valid) {
		f.Fatalf("sections cover %d of %d bytes", off, len(valid))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := ReadTransform(bytes.NewReader(in))
		if err != nil {
			if !errors.Is(err, ErrBadTransformFile) {
				t.Fatalf("error %v does not wrap ErrBadTransformFile", err)
			}
			return
		}
		var out bytes.Buffer
		if _, err := got.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), in) {
			t.Fatalf("WriteTo of an accepted input differs from it:\n in %x\nout %x", in, out.Bytes())
		}
	})
}

func TestReadTransformRejectsTruncation(t *testing.T) {
	u, _ := dataset.GenerateUnion(dataset.UnionParams{M: 12, N: 40, Ks: []int{3}}, rng.New(63))
	tr, err := Fit(u.A, Params{L: 15, Epsilon: 0.1, Seed: 64})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{len(full) / 4, len(full) / 2, len(full) - 3} {
		if _, err := ReadTransform(bytes.NewReader(full[:cut])); !errors.Is(err, ErrBadTransformFile) {
			t.Fatalf("truncation at %d accepted: %v", cut, err)
		}
	}
}

func TestReadTransformRejectsCorruptCSC(t *testing.T) {
	u, _ := dataset.GenerateUnion(dataset.UnionParams{M: 12, N: 40, Ks: []int{3}}, rng.New(65))
	tr, err := Fit(u.A, Params{L: 15, Epsilon: 0.1, Seed: 66})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip a row index deep in the CSC section to an out-of-range value.
	// The CSC row indices live after magic+header+eps+seed+dictionary.
	off := len(transformMagic) + 8*8 + 8 + 8 + 8*tr.D.Rows*tr.D.Cols + 8*(tr.C.Cols+1)
	if off+8 <= len(raw) {
		for i := 0; i < 8; i++ {
			raw[off+i] = 0xff
		}
		if _, err := ReadTransform(bytes.NewReader(raw)); err == nil {
			t.Fatal("corrupt CSC accepted")
		}
	}
}
