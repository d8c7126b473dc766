package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math/bits"
	"slices"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// maxBodyHint bounds how much of a request's Content-Length is
// allocated before its bytes arrive: a client may claim any length.
const maxBodyHint = 1 << 20

// readBody reads r to EOF into one buffer. A positive hint (the
// request's Content-Length) sizes the first allocation, capped at
// maxBodyHint; one spare byte lets a body of exactly the hinted length
// reach EOF without growing. Past that the buffer doubles.
func readBody(r io.Reader, hint int64) ([]byte, error) {
	n := 512
	if hint > 0 {
		n = int(min(hint, maxBodyHint)) + 1
	}
	buf := make([]byte, 0, n)
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, cap(buf))
		}
		m, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+m]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeRequest decodes a POST /v1/analyze body. encoding/json with
// DisallowUnknownFields defines the result: every body decodes to the
// Request, or fails with the error text, that it gives. A single pass
// handles the shape clients send: one object whose keys are exactly
// the Request field names, each at most once, holding string maps,
// a string, a string array, a boolean and an options object. Anything
// else — syntax errors, null, other keys or spellings, duplicate keys,
// invalid UTF-8, lone surrogates — is decoded by encoding/json on the
// same bytes. fast reports which of the two produced the result.
func decodeRequest(body []byte) (req Request, fast bool, err error) {
	d := reqDecoder{b: body}
	if d.request(&req) {
		return req, true, nil
	}
	req = Request{}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err = dec.Decode(&req)
	return req, false, err
}

// reqDecoder is the single-pass decoder. Each method reports false
// as soon as the input leaves the subset it handles; the caller then
// discards the partial result.
type reqDecoder struct {
	b []byte
	i int
}

// Bits of reqDecoder.request's seen set, one per top-level key.
const (
	seenSources = 1 << iota
	seenChanged
	seenBase
	seenRemoved
	seenTrace
	seenOptions
)

func (d *reqDecoder) request(req *Request) bool {
	if !d.consume('{') {
		return false
	}
	if d.consume('}') {
		return true // trailing bytes are ignored, as json.Decoder does
	}
	seen := 0
	for {
		key, ok := d.key()
		if !ok || !d.consume(':') {
			return false
		}
		d.ws()
		var bit int
		switch string(key) {
		case "sources":
			bit = seenSources
			req.Sources, ok = d.stringMap()
		case "changed":
			bit = seenChanged
			req.Changed, ok = d.stringMap()
		case "base":
			bit = seenBase
			req.Base, ok = d.str()
		case "removed":
			bit = seenRemoved
			req.Removed, ok = d.stringArray()
		case "trace":
			bit = seenTrace
			req.Trace, ok = d.boolean()
		case "options":
			bit = seenOptions
			ok = d.options(&req.Options)
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if d.consume('}') {
			return true
		}
		if !d.consume(',') {
			return false
		}
	}
}

// ws skips JSON whitespace.
func (d *reqDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, if c is next.
func (d *reqDecoder) consume(c byte) bool {
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// key reads a top-level key's raw bytes. Only the exact field names
// are known, so a key with an escape matches none of them and is left
// to encoding/json.
func (d *reqDecoder) key() ([]byte, bool) {
	if !d.consume('"') {
		return nil, false
	}
	n := bytes.IndexByte(d.b[d.i:], '"')
	if n < 0 {
		return nil, false
	}
	k := d.b[d.i : d.i+n]
	d.i += n + 1
	return k, true
}

// str reads a string value at d.i.
func (d *reqDecoder) str() (string, bool) {
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return "", false
	}
	start := d.i + 1
	n := bytes.IndexByte(d.b[start:], '"')
	if n < 0 {
		return "", false
	}
	raw := d.b[start : start+n]
	if m, ok := textRun(raw); !ok {
		return "", false
	} else if m == len(raw) {
		d.i = start + n + 1
		return string(raw), true
	}
	// The closing quote is the first one not escaped: not preceded by
	// an odd run of backslashes.
	end := start + n
	for {
		k := end - 1
		for k >= start && d.b[k] == '\\' {
			k--
		}
		if (end-1-k)%2 == 0 {
			break
		}
		n = bytes.IndexByte(d.b[end+1:], '"')
		if n < 0 {
			return "", false
		}
		end += 1 + n
	}
	s, ok := unescape(d.b[start:end])
	d.i = end + 1
	return s, ok
}

// unescape decodes the body of a string holding escapes into one
// buffer of the raw length, which no decoded form exceeds.
func unescape(raw []byte) (string, bool) {
	var sb strings.Builder
	sb.Grow(len(raw))
	for len(raw) > 0 {
		n, ok := textRun(raw)
		if !ok {
			return "", false
		}
		sb.Write(raw[:n])
		raw = raw[n:]
		if len(raw) == 0 {
			break
		}
		if len(raw) < 2 {
			return "", false
		}
		switch c := raw[1]; c {
		case '"', '\\', '/':
			sb.WriteByte(c)
		case 'b':
			sb.WriteByte('\b')
		case 'f':
			sb.WriteByte('\f')
		case 'n':
			sb.WriteByte('\n')
		case 'r':
			sb.WriteByte('\r')
		case 't':
			sb.WriteByte('\t')
		case 'u':
			r, ok := hex4(raw[2:])
			if !ok {
				return "", false
			}
			if utf16.IsSurrogate(r) {
				// Only a high surrogate followed by a low one is a
				// rune; encoding/json turns the rest into U+FFFD.
				if len(raw) < 12 || raw[6] != '\\' || raw[7] != 'u' {
					return "", false
				}
				lo, ok := hex4(raw[8:])
				if r = utf16.DecodeRune(r, lo); !ok || r == utf8.RuneError {
					return "", false
				}
				raw = raw[6:]
			}
			sb.WriteRune(r)
			raw = raw[4:]
		default:
			return "", false
		}
		raw = raw[2:]
	}
	return sb.String(), true
}

// hex4 parses the four hex digits of a \u escape.
func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}

// textRun returns the length of b's leading run of string text that
// decodes to itself, up to the first backslash or the end; ok is false
// when the run stops at a control byte or invalid UTF-8 instead.
func textRun(b []byte) (n int, ok bool) {
	// Eight bytes at a time, m flags in its high bit each byte that is
	// not ASCII, is below 0x20 (subtracting 0x20 borrows into the high
	// bit) or is a backslash (a zero byte after XOR with backslashes).
	// Borrows only run upward from a flagged byte, so the lowest flag
	// is exact and the loop below starts on that byte.
	const ones, spaces, backslashes, highs = 0x0101010101010101, 0x2020202020202020, 0x5c5c5c5c5c5c5c5c, 0x8080808080808080
	i := 0
	for i < len(b) {
		if i+8 <= len(b) {
			w := binary.LittleEndian.Uint64(b[i:])
			x := w ^ backslashes
			m := (w | (w - spaces) | (x-ones)&^x) & highs
			if m == 0 {
				i += 8
				continue
			}
			i += bits.TrailingZeros64(m) / 8
		}
		switch c := b[i]; {
		case c == '\\':
			return i, true
		case c < 0x20:
			return i, false
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return i, false
			}
			i += size
		}
	}
	return i, true
}

// stringMap reads an object of string values; {} is an empty map, as
// encoding/json makes it, and a repeated key keeps its last value.
func (d *reqDecoder) stringMap() (map[string]string, bool) {
	if !d.consume('{') {
		return nil, false
	}
	m := make(map[string]string)
	if d.consume('}') {
		return m, true
	}
	for {
		d.ws()
		k, ok := d.str()
		if !ok || !d.consume(':') {
			return nil, false
		}
		d.ws()
		v, ok := d.str()
		if !ok {
			return nil, false
		}
		m[k] = v
		if d.consume('}') {
			return m, true
		}
		if !d.consume(',') {
			return nil, false
		}
	}
}

// stringArray reads an array of strings; [] is an empty slice.
func (d *reqDecoder) stringArray() ([]string, bool) {
	if !d.consume('[') {
		return nil, false
	}
	a := []string{}
	if d.consume(']') {
		return a, true
	}
	for {
		d.ws()
		s, ok := d.str()
		if !ok {
			return nil, false
		}
		a = append(a, s)
		if d.consume(']') {
			return a, true
		}
		if !d.consume(',') {
			return nil, false
		}
	}
}

// boolean reads true or false. A literal running on into other bytes
// is caught by the delimiter check that follows every value.
func (d *reqDecoder) boolean() (bool, bool) {
	rest := d.b[d.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		d.i += 4
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		d.i += 5
		return false, true
	}
	return false, false
}

// options hands the options object to encoding/json: it is small, and
// its fields take numbers, booleans, null and lists. The object's
// extent is found by bracket depth outside strings; if that is not
// the object's true extent, the slice is not one JSON value and
// encoding/json rejects it.
func (d *reqDecoder) options(ro *RequestOptions) bool {
	if d.i >= len(d.b) || d.b[d.i] != '{' {
		return false
	}
	start, depth := d.i, 0
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case '{', '[':
			depth++
		case '}', ']':
			depth--
		case '"':
			if _, ok := d.str(); !ok {
				return false
			}
			continue
		}
		d.i++
		if depth == 0 {
			dec := json.NewDecoder(bytes.NewReader(d.b[start:d.i]))
			dec.DisallowUnknownFields()
			return dec.Decode(ro) == nil
		}
	}
	return false
}
