package serve

// This file is the wire codec of the /v1/encode and /v1/denoise 200 path.
// Reflective encoding/json cost more than a request's coding: decoding a
// 128-float body through json.Decoder took about three times a strconv-only
// parse of the same bytes. The codec reads the body once into a pooled
// buffer, decodes it in one validating pass with one strconv.ParseFloat per
// number, and appends the response into the same buffer, byte for byte
// what json.NewEncoder(w).Encode writes. Error bodies stay on writeJSON.
//
// The accepted grammar is encoding/json's for EncodeRequest, stricter in
// four places: bytes after the object, member names that match "dict" or
// "signal" only by Unicode case folding ("ſignal"), null elements inside
// "signal", and bodies over the route's cap are refused.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"
)

const (
	// bodyBytesPerEntry and bodySlackBytes size the encode/denoise body
	// cap: a float64 takes at most 24 bytes in shortest form, so 64 bytes
	// per signal entry leave room for a separator and indentation, and the
	// slack covers the dictionary name and the object around the array.
	bodyBytesPerEntry = 64
	bodySlackBytes    = 4 << 10
	// maxWireDepth is encoding/json's nesting limit (its scanner's
	// maxNestingDepth): the codec refuses what json.Unmarshal refuses.
	maxWireDepth = 10000
	// minWireBuf is the first size a pooled buffer grows to.
	minWireBuf = 512
)

// codeBodyCap is the encode/denoise body cap for signals of at most maxRows
// entries. M is fixed per shard for its lifetime, so the cap is too.
func codeBodyCap(maxRows int) int { return bodyBytesPerEntry*maxRows + bodySlackBytes }

// getBuf takes a wire buffer from the server's pool.
func (s *Server) getBuf() *[]byte {
	if b, ok := s.bufs.Get().(*[]byte); ok {
		return b
	}
	return new([]byte)
}

// putBuf returns a wire buffer to the pool unless it outgrew the body cap:
// one oversized body or response must not pin its memory for later ones.
func (s *Server) putBuf(b *[]byte) {
	if cap(*b) <= s.bodyCap {
		s.bufs.Put(b)
	}
}

// readBody reads all of r into buf's storage and returns the bytes read.
// The buffer never grows past limit bytes: r is an http.MaxBytesReader of
// the same limit, which fails a longer body before it could need more.
// When the buffer is full, a one-byte probe tells EOF from more data, so a
// body that exactly fills it needs no growth.
func readBody(r io.Reader, buf []byte, limit int) ([]byte, error) {
	buf = buf[:0]
	for {
		if len(buf) < cap(buf) {
			n, err := r.Read(buf[len(buf):cap(buf)])
			buf = buf[:len(buf)+n]
			if err == io.EOF {
				return buf, nil
			}
			if err != nil {
				return buf, err
			}
			continue
		}
		var probe [1]byte
		n, err := r.Read(probe[:])
		if n > 0 {
			if len(buf) >= limit {
				return buf, &http.MaxBytesError{Limit: int64(limit)}
			}
			grown := make([]byte, len(buf), min(max(2*cap(buf), minWireBuf), limit))
			copy(grown, buf)
			buf = append(grown, probe[0])
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// errWireSyntax reports a body that is not valid JSON.
var errWireSyntax = errors.New("serve: request body is not valid JSON")

// wireReader is a cursor over a request body.
type wireReader struct {
	b []byte
	i int
}

// peek skips JSON whitespace and returns the next byte, or 0 at the end
// (a NUL byte is invalid wherever peek looks, so the two never mix).
func (r *wireReader) peek() byte {
	for ; r.i < len(r.b); r.i++ {
		switch c := r.b[r.i]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// literal steps over word (true, false or null) at the cursor.
func (r *wireReader) literal(word string) error {
	if !bytes.HasPrefix(r.b[r.i:], []byte(word)) {
		return errWireSyntax
	}
	r.i += len(word)
	return nil
}

// str steps over the string token at the cursor, which must sit on its
// opening quote, and returns its contents raw and whether they hold an
// escape. It checks the token as encoding/json's scanner does: no control
// bytes, and only the JSON escapes.
func (r *wireReader) str() (raw []byte, escaped bool, err error) {
	start := r.i + 1
	for i := start; i < len(r.b); i++ {
		switch c := r.b[i]; {
		case c == '"':
			r.i = i + 1
			return r.b[start:i], escaped, nil
		case c < 0x20:
			return nil, false, errWireSyntax
		case c == '\\':
			escaped = true
			if i++; i == len(r.b) {
				return nil, false, errWireSyntax
			}
			switch r.b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(r.b) {
					return nil, false, errWireSyntax
				}
				for _, h := range r.b[i+1 : i+5] {
					if !isHex(h) {
						return nil, false, errWireSyntax
					}
				}
				i += 4
			default:
				return nil, false, errWireSyntax
			}
		}
	}
	return nil, false, errWireSyntax
}

// unquoted returns a string token's decoded contents: the raw bytes when
// they are plain UTF-8, else encoding/json's decoding of the token
// r.b[start:r.i] (escapes resolved, invalid UTF-8 replaced by U+FFFD).
func (r *wireReader) unquoted(start int, raw []byte, escaped bool) (string, error) {
	if !escaped && utf8.Valid(raw) {
		return string(raw), nil
	}
	var s string
	err := json.Unmarshal(r.b[start:r.i], &s)
	return s, err
}

// num steps over the JSON number at the cursor and returns its bytes. The
// grammar check comes first because strconv.ParseFloat also takes forms
// JSON does not ("Inf", "0x1p3", "1_0", ".5").
func (r *wireReader) num() ([]byte, error) {
	b, i := r.b, r.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		return nil, errWireSyntax
	}
	if i < len(b) && b[i] == '.' {
		if i++; i == len(b) || !isDigit(b[i]) {
			return nil, errWireSyntax
		}
		i = digits(b, i)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return nil, errWireSyntax
		}
		i = digits(b, i)
	}
	tok := b[r.i:i]
	r.i = i
	return tok, nil
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool { return isDigit(c) || 'a' <= c|0x20 && c|0x20 <= 'f' }

// skip validates and steps over one value of any type. depth counts the
// arrays and objects around it, the top-level object included.
func (r *wireReader) skip(depth int) error {
	switch r.peek() {
	case '{', '[':
		if depth >= maxWireDepth {
			return fmt.Errorf("serve: request body nests deeper than %d", maxWireDepth)
		}
		open := r.b[r.i]
		closer := byte(']')
		if open == '{' {
			closer = '}'
		}
		r.i++
		if r.peek() == closer {
			r.i++
			return nil
		}
		for {
			if open == '{' {
				if r.peek() != '"' {
					return errWireSyntax
				}
				if _, _, err := r.str(); err != nil {
					return err
				}
				if r.peek() != ':' {
					return errWireSyntax
				}
				r.i++
			}
			if err := r.skip(depth + 1); err != nil {
				return err
			}
			switch r.peek() {
			case ',':
				r.i++
			case closer:
				r.i++
				return nil
			default:
				return errWireSyntax
			}
		}
	case '"':
		_, _, err := r.str()
		return err
	case 't':
		return r.literal("true")
	case 'f':
		return r.literal("false")
	case 'n':
		return r.literal("null")
	default:
		_, err := r.num()
		return err
	}
}

// member classifies an object member name.
type member int

const (
	memberOther  member = iota
	memberDict          // "dict" in any ASCII case
	memberSignal        // "signal" in any ASCII case
	memberFolded        // "dict" or "signal" only under Unicode case folding
)

// memberOf classifies a decoded member name. encoding/json matches a
// field name under bytes.EqualFold, which also folds ſ to s and the Kelvin
// sign to k; the codec refuses those names rather than guess.
func memberOf(name []byte) member {
	switch {
	case asciiEqualFold(name, "dict"):
		return memberDict
	case asciiEqualFold(name, "signal"):
		return memberSignal
	case bytes.EqualFold(name, []byte("dict")), bytes.EqualFold(name, []byte("signal")):
		return memberFolded
	}
	return memberOther
}

// asciiEqualFold reports whether b spells lower, a lower-case ASCII word,
// in any ASCII case.
func asciiEqualFold(b []byte, lower string) bool {
	if len(b) != len(lower) {
		return false
	}
	for i := range b {
		if b[i]|0x20 != lower[i] {
			return false
		}
	}
	return true
}

// decodeRequest decodes an encode/denoise body. The body is one JSON object
// with optional whitespace around it (or null, which encoding/json reads
// as the empty request); members may come in any order, and the last of a
// duplicated member wins. "dict" is a string or null (null keeps the
// earlier value, as in encoding/json). "signal" is an array of JSON
// numbers, each in the float64 range, or null. Any other member is skipped
// after its value is validated. A signal slice starts with capacity
// sigCap, the largest served M, so a well-formed signal takes one
// allocation.
func decodeRequest(body []byte, sigCap int) (EncodeRequest, error) {
	var in EncodeRequest
	r := wireReader{b: body}
	switch r.peek() {
	case '{':
	case 'n':
		if err := r.literal("null"); err != nil {
			return in, err
		}
		return in, r.end()
	default:
		return in, errors.New("serve: request body is not a JSON object")
	}
	r.i++
	if r.peek() == '}' {
		r.i++
		return in, r.end()
	}
	for {
		if r.peek() != '"' {
			return in, errWireSyntax
		}
		start := r.i
		raw, escaped, err := r.str()
		if err != nil {
			return in, err
		}
		name := raw
		if escaped {
			s, err := r.unquoted(start, raw, escaped)
			if err != nil {
				return in, err
			}
			name = []byte(s)
		}
		if r.peek() != ':' {
			return in, errWireSyntax
		}
		r.i++
		switch memberOf(name) {
		case memberDict:
			err = r.dict(&in.Dict)
		case memberSignal:
			in.Signal, err = r.signal(in.Signal, sigCap)
		case memberFolded:
			err = fmt.Errorf("serve: member name %q matches \"dict\" or \"signal\" only by Unicode case folding", name)
		default:
			err = r.skip(1)
		}
		if err != nil {
			return in, err
		}
		switch r.peek() {
		case ',':
			r.i++
		case '}':
			r.i++
			return in, r.end()
		default:
			return in, errWireSyntax
		}
	}
}

// end checks that only whitespace follows the request value.
func (r *wireReader) end() error {
	if r.peek() != 0 || r.i != len(r.b) {
		return errors.New("serve: bytes after the request object")
	}
	return nil
}

// dict decodes the "dict" member's value into dst; null leaves dst as it
// was.
func (r *wireReader) dict(dst *string) error {
	switch r.peek() {
	case '"':
		start := r.i
		raw, escaped, err := r.str()
		if err != nil {
			return err
		}
		*dst, err = r.unquoted(start, raw, escaped)
		return err
	case 'n':
		return r.literal("null")
	}
	return errors.New(`serve: "dict" must be a string or null`)
}

// signal decodes the "signal" member's value, reusing prev's storage (an
// earlier duplicate's) or allocating sigCap entries.
func (r *wireReader) signal(prev []float64, sigCap int) ([]float64, error) {
	switch r.peek() {
	case '[':
	case 'n':
		return nil, r.literal("null")
	default:
		return nil, errors.New(`serve: "signal" must be an array of numbers or null`)
	}
	r.i++
	sig := prev[:0]
	if sig == nil {
		sig = make([]float64, 0, sigCap)
	}
	if r.peek() == ']' {
		r.i++
		return sig, nil
	}
	for {
		if r.peek() == 'n' {
			return nil, fmt.Errorf("serve: signal[%d] is null, not a number", len(sig))
		}
		tok, err := r.num()
		if err != nil {
			return nil, err
		}
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return nil, fmt.Errorf("serve: signal[%d] = %s is outside the float64 range", len(sig), tok)
		}
		sig = append(sig, v)
		switch r.peek() {
		case ',':
			r.i++
		case ']':
			r.i++
			return sig, nil
		default:
			return nil, errWireSyntax
		}
	}
}

// appendEncodeResponse appends resp as json.NewEncoder(w).Encode(resp)
// writes it, trailing newline included. dict is resp.Dict as encoding/json
// writes a string (json.Marshal's bytes); shards build theirs once.
func appendEncodeResponse(b, dict []byte, resp *EncodeResponse) []byte {
	b = appendHead(b, dict, resp.Epoch, resp.Batch)
	b = append(b, `,"idx":`...)
	if resp.Idx == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, v := range resp.Idx {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(v), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"coef":`...)
	b = appendFloats(b, resp.Coef)
	return appendTail(b, resp.Resid2, resp.Iters)
}

// appendDenoiseResponse is appendEncodeResponse for DenoiseResponse.
func appendDenoiseResponse(b, dict []byte, resp *DenoiseResponse) []byte {
	b = appendHead(b, dict, resp.Epoch, resp.Batch)
	b = append(b, `,"denoised":`...)
	b = appendFloats(b, resp.Denoised)
	return appendTail(b, resp.Resid2, resp.Iters)
}

// appendHead appends the members both 200 bodies open with.
func appendHead(b, dict []byte, epoch uint64, batch int) []byte {
	b = append(b, `{"dict":`...)
	b = append(b, dict...)
	b = append(b, `,"epoch":`...)
	b = strconv.AppendUint(b, epoch, 10)
	b = append(b, `,"batch":`...)
	return strconv.AppendInt(b, int64(batch), 10)
}

// appendTail appends the members both 200 bodies close with.
func appendTail(b []byte, resid2 float64, iters int) []byte {
	b = append(b, `,"resid2":`...)
	b = appendFloat(b, resid2)
	b = append(b, `,"iters":`...)
	b = strconv.AppendInt(b, int64(iters), 10)
	return append(b, "}\n"...)
}

// appendFloats appends xs as a JSON array, or null when xs is nil.
func appendFloats(b []byte, xs []float64) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, v)
	}
	return append(b, ']')
}

// appendFloat appends a finite f as encoding/json writes a float64: the
// shortest round-trip digits, in %f form unless |f| is below 1e-6 or at
// least 1e21, and then in %e form with a one-digit exponent unpadded.
func appendFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs >= 1e21 || (abs > 0 && abs < 1e-6) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 becomes e-7.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}
