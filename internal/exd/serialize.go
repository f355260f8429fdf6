package exd

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"extdict/internal/mat"
	"extdict/internal/sparse"
)

// Serialization of fitted transforms: preprocessing is the expensive
// one-time step ExtDict amortizes over many runs (§I), so a production
// deployment fits once and ships (D, C) to the compute jobs. The format is
// little-endian binary: a magic string, the Params, the dictionary, the CSC
// arrays, and the dictionary provenance indices.

const transformMagic = "EXDTFM01"

// ErrBadTransformFile reports an unreadable or corrupt transform file.
var ErrBadTransformFile = errors.New("exd: bad transform file")

// WriteTo serializes the transform. It returns the byte count written.
func (t *Transform) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	n := int64(0)
	write := func(v any) error {
		if err := binary.Write(bw, binary.LittleEndian, v); err != nil {
			return err
		}
		n += int64(binary.Size(v))
		return nil
	}
	if _, err := bw.WriteString(transformMagic); err != nil {
		return n, err
	}
	n += int64(len(transformMagic))

	hdr := []int64{
		int64(t.D.Rows), int64(t.D.Cols),
		int64(t.C.Rows), int64(t.C.Cols), int64(t.C.NNZ()),
		int64(t.Params.L), int64(t.Params.MaxAtoms), int64(t.OMPIters),
	}
	if err := write(hdr); err != nil {
		return n, err
	}
	if err := write(math.Float64bits(t.Params.Epsilon)); err != nil {
		return n, err
	}
	if err := write(t.Params.Seed); err != nil {
		return n, err
	}

	// Dictionary, row-major.
	for i := 0; i < t.D.Rows; i++ {
		if err := write(t.D.Row(i)); err != nil {
			return n, err
		}
	}
	// CSC arrays as int64 + float64.
	colPtr := make([]int64, len(t.C.ColPtr))
	for i, v := range t.C.ColPtr {
		colPtr[i] = int64(v)
	}
	if err := write(colPtr); err != nil {
		return n, err
	}
	rowIdx := make([]int64, len(t.C.RowIdx))
	for i, v := range t.C.RowIdx {
		rowIdx[i] = int64(v)
	}
	if err := write(rowIdx); err != nil {
		return n, err
	}
	if err := write(t.C.Val); err != nil {
		return n, err
	}
	dictIdx := make([]int64, len(t.DictIdx))
	for i, v := range t.DictIdx {
		dictIdx[i] = int64(v)
	}
	if err := write(dictIdx); err != nil {
		return n, err
	}
	if err := bw.Flush(); err != nil {
		return n, err
	}
	return n, nil
}

// ReadTransform deserializes a transform written by WriteTo, validating
// structural invariants before returning it. Each section grows as its
// bytes arrive, so a header that claims more than the input holds costs no
// more memory than the input itself. Bytes after the transform are an
// error: the input is one transform.
func ReadTransform(r io.Reader) (*Transform, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(transformMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTransformFile, err)
	}
	if string(magic) != transformMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadTransformFile, magic)
	}
	toInt := func(u uint64) int { return int(int64(u)) }
	hdr, err := readWords(br, 8, toInt)
	if err != nil {
		return nil, err
	}
	dRows, dCols := hdr[0], hdr[1]
	cRows, cCols, nnz := hdr[2], hdr[3], hdr[4]
	if dRows <= 0 || dCols <= 0 || cRows != dCols || cCols <= 0 || nnz < 0 {
		return nil, fmt.Errorf("%w: inconsistent header %v", ErrBadTransformFile, hdr)
	}
	// The cap keeps dRows·dCols and cCols+1 far from overflowing int.
	const maxDim = 1 << 28
	if dRows > maxDim || dCols > maxDim || cCols > maxDim || nnz > maxDim {
		return nil, fmt.Errorf("%w: implausible sizes %v", ErrBadTransformFile, hdr)
	}
	epsSeed, err := readWords(br, 2, func(u uint64) uint64 { return u })
	if err != nil {
		return nil, err
	}
	d, err := readWords(br, dRows*dCols, math.Float64frombits)
	if err != nil {
		return nil, err
	}
	colPtr, err := readWords(br, cCols+1, toInt)
	if err != nil {
		return nil, err
	}
	rowIdx, err := readWords(br, nnz, toInt)
	if err != nil {
		return nil, err
	}
	val, err := readWords(br, nnz, math.Float64frombits)
	if err != nil {
		return nil, err
	}
	dictIdx, err := readWords(br, dCols, toInt)
	if err != nil {
		return nil, err
	}
	if _, err := br.ReadByte(); err == nil {
		return nil, fmt.Errorf("%w: bytes after the transform", ErrBadTransformFile)
	} else if !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("%w: %v", ErrBadTransformFile, err)
	}

	c := &sparse.CSC{Rows: cRows, Cols: cCols, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
	if err := c.Check(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTransformFile, err)
	}
	return &Transform{
		D:        mat.NewDenseData(dRows, dCols, d),
		C:        c,
		DictIdx:  dictIdx,
		OMPIters: hdr[7],
		Params: Params{
			L: hdr[5], MaxAtoms: hdr[6],
			Epsilon: math.Float64frombits(epsSeed[0]), Seed: epsSeed[1],
		},
	}, nil
}

// readWords reads n little-endian 8-byte words and converts each with conv.
// The result grows by append one buffer at a time, never to a length the
// input has not delivered, because n comes from the header and may lie.
func readWords[T any](r io.Reader, n int, conv func(uint64) T) ([]T, error) {
	var buf [4096]byte
	out := make([]T, 0, min(n, len(buf)/8))
	for len(out) < n {
		chunk := buf[:8*min(n-len(out), len(buf)/8)]
		if _, err := io.ReadFull(r, chunk); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadTransformFile, err)
		}
		for i := 0; i < len(chunk); i += 8 {
			out = append(out, conv(binary.LittleEndian.Uint64(chunk[i:])))
		}
	}
	return out, nil
}
