package shard

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"incgraph/internal/graph"
)

// This file reads and writes, by hand, the two JSON documents router and
// shard exchange on every routed query: a shard's published view
//
//	{"algo":…,"epoch":N,"batches":N,"degraded":true?,"data":{"src":N?,"dist"|"labels":[…]}}
//
// as serve.WriteQuery writes it, and an eval request and response
//
//	{"seeds":[[v,d],…]}
//	{"proto":2,"algo":"sssp","epoch":N,"improved":[[v,d],…]}
//
// The wire is encoding/json's, byte for byte: the writers below produce
// what json.Marshal(EvalRequest) and json.NewEncoder.Encode(EvalResponse)
// produce, and the scanner accepts a subset of what encoding/json decodes
// into ShardView's wire struct, EvalRequest and EvalResponse, with equal
// values — so a shard or router built before this file interoperates with
// one built after it, and EvalProto did not move. What changed is the
// cost: encoding/json decodes an integer array through reflection at some
// 20 MB/s, and a routed SSSP query decodes a view per shard and an eval per
// frontier, one after another.
// wire_test.go holds the scanner to the reflected decode (fuzzed) and the
// writers to json.Marshal.
//
// The scanner is stricter than encoding/json where the daemon never
// writes what it refuses:
//
//   - keys are matched byte for byte (encoding/json falls back to a
//     case-folded match, so it reads "EPOCH" and "ſrc" where this skips an
//     unknown key), and a key written with an escape is an error;
//   - data after the document is an error (json.Decoder never looks);
//   - null is read for a vector (nil, as encoding/json) and refused for a
//     scalar, an object, or an element; a pair has exactly two elements;
//   - the eval response's algo is a string without escapes;
//   - values under unknown keys nest at most maxSkipDepth deep
//     (encoding/json: 10,000).
//
// Like encoding/json it refuses a float or exponent where an integer is
// wanted, an integer past its field's width, a negative epoch, leading
// zeros, and truncation anywhere; the last value of a repeated key wins.

// maxSkipDepth bounds the nesting of a value the scanner skips, and so
// its recursion.
const maxSkipDepth = 64

// readBody reads r to its end through a cap: a body longer than limit
// bytes is an error, never an allocation. hint is the Content-Length (−1
// when unknown) and sizes the buffer, so a body of known length is read
// into one allocation.
func readBody(r io.Reader, hint, limit int64) ([]byte, error) {
	if hint > limit {
		return nil, fmt.Errorf("body of %d bytes exceeds the %d-byte cap", hint, limit)
	}
	var buf bytes.Buffer
	buf.Grow(int(max(hint, 0)) + bytes.MinRead)
	if _, err := buf.ReadFrom(io.LimitReader(r, limit+1)); err != nil {
		return nil, err
	}
	if int64(buf.Len()) > limit {
		return nil, fmt.Errorf("body exceeds the %d-byte cap", limit)
	}
	return buf.Bytes(), nil
}

// scanner is a cursor over one JSON document held whole in memory.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) fail(what string) error {
	if s.i >= len(s.b) {
		return fmt.Errorf("shard wire: %s, not the end of input at offset %d", what, len(s.b))
	}
	return fmt.Errorf("shard wire: %s, not %q at offset %d", what, s.b[s.i], s.i)
}

// peek skips whitespace and returns the byte under the cursor, 0 at the
// end of input.
func (s *scanner) peek() byte {
	for ; s.i < len(s.b); s.i++ {
		if c := s.b[s.i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
	}
	return 0
}

// take consumes c if it is the next byte after whitespace.
func (s *scanner) take(c byte) bool {
	if s.peek() != c {
		return false
	}
	s.i++
	return true
}

func (s *scanner) expect(c byte) error {
	if !s.take(c) {
		return s.fail("want " + strconv.QuoteRune(rune(c)))
	}
	return nil
}

// literal consumes lit if the input continues with it.
func (s *scanner) literal(lit string) bool {
	s.peek()
	if len(s.b)-s.i < len(lit) || string(s.b[s.i:s.i+len(lit)]) != lit {
		return false
	}
	s.i += len(lit)
	return true
}

// end checks that nothing but whitespace follows the document.
func (s *scanner) end() error {
	if s.peek(); s.i < len(s.b) {
		return s.fail("want the end of the document")
	}
	return nil
}

// integer scans an integer literal, -?(0|[1-9][0-9]*) with neither
// fraction nor exponent, as sign and magnitude.
func (s *scanner) integer() (neg bool, mag uint64, err error) {
	s.peek()
	b, i := s.b, s.i
	if i < len(b) && b[i] == '-' {
		neg = true
		i++
	}
	start := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		mag = mag*10 + uint64(b[i]-'0')
	}
	switch digits := i - start; {
	case digits == 0:
		s.i = i
		return false, 0, s.fail("want an integer")
	case digits > 1 && b[start] == '0':
		s.i = start
		return false, 0, s.fail("want an integer without leading zeros")
	case i < len(b) && (b[i] == '.' || b[i] == 'e' || b[i] == 'E'):
		s.i = i
		return false, 0, s.fail("want an integer")
	case digits > 19: // mag may have wrapped; 10^19 − 1 still fits
		if mag, err = strconv.ParseUint(string(b[start:i]), 10, 64); err != nil {
			s.i = start
			return false, 0, s.fail("want an integer of at most 64 bits")
		}
	}
	s.i = i
	return neg, mag, nil
}

func (s *scanner) int64() (int64, error) {
	at := s.i
	neg, mag, err := s.integer()
	switch {
	case err != nil:
		return 0, err
	case neg && mag <= 1<<63:
		return -int64(mag), nil // −2^63 wraps onto itself
	case !neg && mag <= math.MaxInt64:
		return int64(mag), nil
	}
	s.i = at
	return 0, s.fail("want an integer of at most 64 bits")
}

func (s *scanner) uint64() (uint64, error) {
	at := s.i
	neg, mag, err := s.integer()
	if err == nil && neg { // "-0" too, as strconv.ParseUint
		s.i = at
		err = s.fail("want an unsigned integer")
	}
	return mag, err
}

// narrow scans an integer that fits bits bits (a NodeID, an int).
func (s *scanner) narrow(bits int) (int64, error) {
	at := s.i
	v, err := s.int64()
	if err == nil && v != v<<(64-bits)>>(64-bits) {
		s.i = at
		err = s.fail("want an integer of at most " + strconv.Itoa(bits) + " bits")
	}
	return v, err
}

func (s *scanner) bool() (bool, error) {
	switch {
	case s.literal("true"):
		return true, nil
	case s.literal("false"):
		return false, nil
	}
	return false, s.fail("want true or false")
}

// str scans a string and returns the bytes between its quotes: escapes
// are checked, not resolved, and reported.
func (s *scanner) str() (raw []byte, escaped bool, err error) {
	if err := s.expect('"'); err != nil {
		return nil, false, err
	}
	start := s.i
	for ; s.i < len(s.b); s.i++ {
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return s.b[start : s.i-1], escaped, nil
		case c < ' ':
			return nil, false, s.fail("want no control character in a string")
		case c == '\\':
			escaped = true
			s.i++
			if s.i < len(s.b) && s.b[s.i] == 'u' {
				for k := 0; k < 4; k++ {
					s.i++
					if s.i >= len(s.b) || !isHex(s.b[s.i]) {
						return nil, false, s.fail("want four hex digits after \\u")
					}
				}
			} else if s.i >= len(s.b) || !isEscape(s.b[s.i]) {
				return nil, false, s.fail("want an escape character")
			}
		}
	}
	return nil, false, s.fail("want the end of a string")
}

func isEscape(c byte) bool {
	switch c {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		return true
	}
	return false
}

func isHex(c byte) bool {
	return c-'0' <= 9 || c|0x20-'a' <= 5
}

// object walks the members of the object under the cursor: member is
// called with each key, the cursor on its value, and consumes the value
// (skip, for a key it does not read).
func (s *scanner) object(member func(key []byte) error) error {
	if err := s.expect('{'); err != nil {
		return err
	}
	if s.take('}') {
		return nil
	}
	for {
		key, escaped, err := s.str()
		if err != nil {
			return err
		}
		if escaped {
			return fmt.Errorf("shard wire: key %q is written with an escape", key)
		}
		if err := s.expect(':'); err != nil {
			return err
		}
		if err := member(key); err != nil {
			return err
		}
		if !s.take(',') {
			return s.expect('}')
		}
	}
}

// document walks the object that is the whole input: object, then end.
func (s *scanner) document(member func(key []byte) error) error {
	if err := s.object(member); err != nil {
		return err
	}
	return s.end()
}

// skip passes over one well-formed value of any type, nested at most
// maxSkipDepth − depth deep.
func (s *scanner) skip(depth int) error {
	switch c := s.peek(); {
	case c == '"':
		_, _, err := s.str()
		return err
	case c == '{' || c == '[':
		if depth == maxSkipDepth {
			return s.fail("want a value nested less deeply")
		}
		s.i++
		closer := c + 2 // ASCII: '{'+2 == '}', '['+2 == ']'
		if s.take(closer) {
			return nil
		}
		for {
			if c == '{' {
				if _, _, err := s.str(); err != nil {
					return err
				}
				if err := s.expect(':'); err != nil {
					return err
				}
			}
			if err := s.skip(depth + 1); err != nil {
				return err
			}
			if !s.take(',') {
				return s.expect(closer)
			}
		}
	case c == '-' || c-'0' <= 9:
		return s.skipNumber()
	case s.literal("true") || s.literal("false") || s.literal("null"):
		return nil
	}
	return s.fail("want a value")
}

// skipNumber passes over -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?.
func (s *scanner) skipNumber() error {
	digits := func() int {
		start := s.i
		for s.i < len(s.b) && s.b[s.i]-'0' <= 9 {
			s.i++
		}
		return s.i - start
	}
	if s.b[s.i] == '-' {
		s.i++
	}
	start := s.i
	if n := digits(); n == 0 || n > 1 && s.b[start] == '0' {
		s.i = start
		return s.fail("want a number")
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if digits() == 0 {
			return s.fail("want a digit after the decimal point")
		}
	}
	if s.i < len(s.b) && s.b[s.i]|0x20 == 'e' {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if digits() == 0 {
			return s.fail("want a digit in the exponent")
		}
	}
	return nil
}

// elems is a capacity for the array of scalars (perElem 1) or pairs
// (perElem 2) starting under the cursor and closed by closer: exact for
// what the daemon writes — one comma per scalar, the last excepted — and
// never more than the input could hold at minBytes per element.
func (s *scanner) elems(closer string, perElem, minBytes int) int {
	rest := s.b[s.i:]
	if end := bytes.Index(rest, []byte(closer)); end >= 0 {
		rest = rest[:end]
	}
	return min((bytes.Count(rest, []byte{','})+1)/perElem, len(rest)/minBytes+1)
}

// ints scans an array of integers; null is the nil vector.
func (s *scanner) ints() ([]int64, error) {
	if s.literal("null") {
		return nil, nil
	}
	if err := s.expect('['); err != nil {
		return nil, err
	}
	vals := make([]int64, 0, s.elems("]", 1, 2))
	if s.take(']') {
		return vals, nil
	}
	for {
		v, err := s.int64()
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		if !s.take(',') {
			return vals, s.expect(']')
		}
	}
}

// pairs scans an array of [vertex, value] pairs; null is the nil list.
func (s *scanner) pairs() ([][2]int64, error) {
	if s.literal("null") {
		return nil, nil
	}
	if err := s.expect('['); err != nil {
		return nil, err
	}
	pairs := make([][2]int64, 0, s.elems("]]", 2, 6))
	if s.take(']') {
		return pairs, nil
	}
	for {
		var p [2]int64
		err := s.expect('[')
		if err == nil {
			p[0], err = s.int64()
		}
		if err == nil {
			err = s.expect(',')
		}
		if err == nil {
			p[1], err = s.int64()
		}
		if err == nil {
			err = s.expect(']')
		}
		if err != nil {
			return nil, err
		}
		pairs = append(pairs, p)
		if !s.take(',') {
			return pairs, s.expect(']')
		}
	}
}

// scanView reads a published view as Client.View wants it: the envelope's
// epoch and degraded stamp, and from "data" the source and the vector algo
// ("sssp": dist, "cc": labels) answers with.
func scanView(body []byte, algo string) (ShardView, error) {
	var sv ShardView
	var dist, labels []int64
	s := scanner{b: body}
	err := s.document(func(key []byte) (err error) {
		switch string(key) {
		case "epoch":
			sv.Epoch, err = s.uint64()
		case "degraded":
			sv.Degraded, err = s.bool()
		case "data":
			err = s.object(func(key []byte) (err error) {
				switch string(key) {
				case "src":
					var src int64
					src, err = s.narrow(32)
					sv.Src = graph.NodeID(src)
				case "dist":
					dist, err = s.ints()
				case "labels":
					labels, err = s.ints()
				default:
					err = s.skip(0)
				}
				return err
			})
		default:
			err = s.skip(0)
		}
		return err
	})
	if err != nil {
		return ShardView{}, err
	}
	sv.Values = dist
	if algo == "cc" {
		sv.Values = labels
	}
	return sv, nil
}

// scanEvalRequest reads an EvalRequest.
func scanEvalRequest(body []byte) (EvalRequest, error) {
	var req EvalRequest
	s := scanner{b: body}
	err := s.document(func(key []byte) (err error) {
		if string(key) == "seeds" {
			req.Seeds, err = s.pairs()
			return err
		}
		return s.skip(0)
	})
	if err != nil {
		return EvalRequest{}, err
	}
	return req, nil
}

// scanEvalResponse reads an EvalResponse. A pre-v2 shard's dense "values"
// is an unknown key like any other: what is left has no "proto", which is
// what Client.Eval refuses.
func scanEvalResponse(body []byte) (EvalResponse, error) {
	var resp EvalResponse
	s := scanner{b: body}
	err := s.document(func(key []byte) (err error) {
		switch string(key) {
		case "proto":
			var proto int64
			proto, err = s.narrow(strconv.IntSize)
			resp.Proto = int(proto)
		case "algo":
			var raw []byte
			var escaped bool
			if raw, escaped, err = s.str(); err == nil && (escaped || !utf8.Valid(raw)) {
				err = fmt.Errorf("shard wire: algo %q is not a plain name", raw)
			}
			resp.Algo = string(raw)
		case "epoch":
			resp.Epoch, err = s.uint64()
		case "improved":
			resp.Improved, err = s.pairs()
		default:
			err = s.skip(0)
		}
		return err
	})
	if err != nil {
		return EvalResponse{}, err
	}
	return resp, nil
}

// appendPairs appends pairs as json.Marshal writes a [][2]int64.
func appendPairs(b []byte, pairs [][2]int64) []byte {
	if pairs == nil {
		return append(b, "null"...)
	}
	// Room for pairs of the usual size — a vertex id and a distance of
	// four or five digits each — so the buffer is grown once, not doubled
	// ten times.
	b = append(slices.Grow(b, 2+12*len(pairs)), '[')
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, p[0], 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, p[1], 10)
		b = append(b, ']')
	}
	return append(b, ']')
}

// appendEvalRequest appends json.Marshal(EvalRequest{Seeds: seeds}).
func appendEvalRequest(b []byte, seeds [][2]int64) []byte {
	return append(appendPairs(append(b, `{"seeds":`...), seeds), '}')
}

// appendEvalResponse appends what json.NewEncoder.Encode(resp) writes,
// newline included.
func appendEvalResponse(b []byte, resp *EvalResponse) []byte {
	b = strconv.AppendInt(append(b, `{"proto":`...), int64(resp.Proto), 10)
	b = appendString(append(b, `,"algo":`...), resp.Algo)
	b = strconv.AppendUint(append(b, `,"epoch":`...), resp.Epoch, 10)
	return append(appendPairs(append(b, `,"improved":`...), resp.Improved), "}\n"...)
}

// appendString appends s as encoding/json quotes a string with HTML
// escaping on (its default): <, > and & as \u00XX, U+2028 and U+2029
// escaped, an invalid UTF-8 byte as \ufffd.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c >= ' ' && c < utf8.RuneSelf && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
			i++
			continue
		}
		r, size := rune(c), 1
		if c >= utf8.RuneSelf {
			r, size = utf8.DecodeRuneInString(s[i:])
			if invalid := r == utf8.RuneError && size == 1; !invalid && r != '\u2028' && r != '\u2029' {
				i += size
				continue
			}
		}
		b = append(b, s[start:i]...)
		switch r {
		case '"', '\\':
			b = append(b, '\\', c)
		case '\b':
			b = append(b, '\\', 'b')
		case '\f':
			b = append(b, '\\', 'f')
		case '\n':
			b = append(b, '\\', 'n')
		case '\r':
			b = append(b, '\\', 'r')
		case '\t':
			b = append(b, '\\', 't')
		default: // a control character, <, >, &, U+2028, U+2029, or U+FFFD for an invalid byte
			b = append(b, '\\', 'u', hex[r>>12&0xF], hex[r>>8&0xF], hex[r>>4&0xF], hex[r&0xF])
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}
