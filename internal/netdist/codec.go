package netdist

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/relation"
)

// This file is the frame codec: a hand-written encoder and decoder for
// the two frame types, Request and Response. The encoder writes exactly
// the bytes encoding/json's Marshal writes for them (field order, omitted
// empty fields, sorted span attributes, HTML-safe string escapes, U+FFFD
// for invalid UTF-8), so the wire format is the JSON one and any JSON
// peer reads it. The decoder reads what Unmarshal reads into the same
// types and gives the same values: unknown keys are skipped, keys match
// fields case-insensitively the way Unmarshal folds them, and null leaves
// a field zero. It is stricter in two places only: a known key given
// twice in one object, and nesting deeper than maxDepth, are errors.
//
// Neither side uses reflection, and both work in pooled buffers: a frame
// is encoded into one buffer and written with one Write, read into one,
// and decoded from it. Every string the decoder stores is copied out of
// the buffer, so a decoded frame stays valid after the buffer is reused.

// maxDepth bounds how deeply an unknown value may nest before the
// decoder refuses the frame (Unmarshal's own bound is 10 000).
const maxDepth = 512

// maxPooled is the largest buffer returned to the pool: a rare large
// frame (a whole-relation scan) is not kept alive by it.
const maxPooled = 64 << 10

var framePool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

func getFrameBuf() *[]byte { return framePool.Get().(*[]byte) }

func putFrameBuf(bp *[]byte) {
	if cap(*bp) <= maxPooled {
		*bp = (*bp)[:0]
		framePool.Put(bp)
	}
}

// WriteFrame writes one length-prefixed frame carrying v, a Request or a
// Response (or a pointer to one), in a single Write.
func WriteFrame(w io.Writer, v any) error {
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	frame, err := appendFrame((*bp)[:0], v)
	*bp = frame
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

// ReadFrame reads one length-prefixed frame into v, a *Request or a
// *Response, which it overwrites entirely.
func ReadFrame(r io.Reader, v any) error {
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	buf := append((*bp)[:0], 0, 0, 0, 0)
	*bp = buf
	if _, err := io.ReadFull(r, buf); err != nil {
		return err
	}
	n := binary.BigEndian.Uint32(buf)
	if n > MaxFrame {
		return fmt.Errorf("netdist: frame of %d bytes exceeds MaxFrame", n)
	}
	body := slices.Grow(buf[:0], int(n))[:n]
	*bp = body
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return decodeBody(body, v)
}

// roundTrip pushes v through the frame codec into out — the loopback
// transport uses it so in-process requests see exactly the bytes TCP
// would carry.
func roundTrip(v, out any) error {
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	frame, err := appendFrame((*bp)[:0], v)
	*bp = frame
	if err != nil {
		return err
	}
	return decodeBody(frame[4:], out)
}

// appendFrame appends v's frame — length prefix and body — to b.
func appendFrame(b []byte, v any) ([]byte, error) {
	start := len(b)
	b, err := appendBody(append(b, 0, 0, 0, 0), v)
	if err != nil {
		return b[:start], err
	}
	n := len(b) - start - 4
	if n > MaxFrame {
		return b[:start], fmt.Errorf("netdist: frame of %d bytes exceeds MaxFrame", n)
	}
	binary.BigEndian.PutUint32(b[start:], uint32(n))
	return b, nil
}

// appendBody appends v's JSON encoding to b.
func appendBody(b []byte, v any) ([]byte, error) {
	switch v := v.(type) {
	case *Request:
		return appendRequest(b, v), nil
	case Request:
		return appendRequest(b, &v), nil
	case *Response:
		return appendResponse(b, v), nil
	case Response:
		return appendResponse(b, &v), nil
	}
	return b, fmt.Errorf("netdist: cannot encode a %T frame", v)
}

// decodeBody decodes one frame body into v.
func decodeBody(body []byte, v any) error {
	d := decoder{b: body}
	var err error
	switch v := v.(type) {
	case *Request:
		err = d.request(v)
	case *Response:
		err = d.response(v)
	default:
		return fmt.Errorf("netdist: cannot decode a frame into a %T", v)
	}
	if err == nil {
		err = d.end()
	}
	return err
}

// --- encoder ---------------------------------------------------------------

func appendRequest(b []byte, r *Request) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, r.ID, 10)
	b = appendField(b, "type", r.Type, false)
	b = appendField(b, "relation", r.Relation, true)
	if r.Col != 0 {
		b = strconv.AppendInt(append(b, `,"col":`...), int64(r.Col), 10)
	}
	b = appendField(b, "value", r.Value, true)
	b = appendField(b, "lo", r.Lo, true)
	b = appendField(b, "hi", r.Hi, true)
	if r.LoOpen {
		b = append(b, `,"lo_open":true`...)
	}
	if r.HiOpen {
		b = append(b, `,"hi_open":true`...)
	}
	if r.Insert {
		b = append(b, `,"insert":true`...)
	}
	if len(r.Tuple) > 0 {
		b = appendStrings(append(b, `,"tuple":`...), r.Tuple)
	}
	b = appendField(b, "trace", r.Trace, true)
	return append(b, '}')
}

func appendResponse(b []byte, r *Response) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, r.ID, 10)
	b = strconv.AppendBool(append(b, `,"ok":`...), r.OK)
	b = appendField(b, "err", r.Err, true)
	if len(r.Tuples) > 0 {
		b = append(b, `,"tuples":[`...)
		for i, t := range r.Tuples {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendStrings(b, t)
		}
		b = append(b, ']')
	}
	if r.Arity != 0 {
		b = strconv.AppendInt(append(b, `,"arity":`...), int64(r.Arity), 10)
	}
	if r.Changed {
		b = append(b, `,"changed":true`...)
	}
	if len(r.Spans) > 0 {
		b = append(b, `,"spans":[`...)
		for i := range r.Spans {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendSpan(b, &r.Spans[i])
		}
		b = append(b, ']')
	}
	return append(b, '}')
}

func appendSpan(b []byte, s *WireSpan) []byte {
	b = appendString(append(b, `{"trace_id":`...), s.TraceID)
	b = appendField(b, "span_id", s.SpanID, false)
	b = appendField(b, "parent", s.Parent, true)
	b = appendField(b, "name", s.Name, false)
	b = appendField(b, "service", s.Service, false)
	b = strconv.AppendInt(append(b, `,"start_unix_nano":`...), s.StartNS, 10)
	b = strconv.AppendInt(append(b, `,"duration_ns":`...), s.Duration, 10)
	if len(s.Attrs) > 0 {
		keys := make([]string, 0, len(s.Attrs))
		for k := range s.Attrs {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		b = append(b, `,"attrs":{`...)
		for i, k := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(append(appendString(b, k), ':'), s.Attrs[k])
		}
		b = append(b, '}')
	}
	b = appendField(b, "err", s.Err, true)
	return append(b, '}')
}

// appendField appends `,"name":"value"`, or nothing for an omitted empty
// value.
func appendField(b []byte, name, value string, omitEmpty bool) []byte {
	if omitEmpty && value == "" {
		return b
	}
	b = append(append(append(b, ',', '"'), name...), '"', ':')
	return appendString(b, value)
}

// appendStrings appends a string array; nil is null, as Marshal writes
// it.
func appendStrings(b []byte, ss []string) []byte {
	if ss == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, s := range ss {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, s)
	}
	return append(b, ']')
}

const hexDigits = "0123456789abcdef"

// htmlSafe reports whether an ASCII byte goes into a JSON string as is
// under Marshal's HTML-safe escaping.
func htmlSafe(c byte) bool {
	return c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// appendString appends s as a JSON string, escaped as Marshal escapes it:
// `"` and `\` and the short control escapes, \u00XX for the other control
// bytes and for <, > and &, \ufffd for each byte of invalid UTF-8, and
// \u2028 and \u2029 for the line and paragraph separators.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe(c) {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
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
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(append(b, s[start:i]...), `\ufffd`...)
		} else if r == '\u2028' || r == '\u2029' {
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		} else {
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(append(b, s[start:]...), '"')
}

// --- decoder ---------------------------------------------------------------

// decoder reads one JSON frame body.
type decoder struct {
	b     []byte
	i     int
	depth int
	// esc holds the unescaped text of the last string that needed it.
	esc []byte
}

func (d *decoder) fail(what string) error {
	return fmt.Errorf("netdist: bad frame at byte %d: %s", d.i, what)
}

func (d *decoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// next skips white space and returns the next byte, 0 at the end.
func (d *decoder) next() byte {
	d.ws()
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// end checks that only white space follows the value.
func (d *decoder) end() error {
	if d.next(); d.i != len(d.b) {
		return d.fail("data after the frame's value")
	}
	return nil
}

// literal consumes the literal word (true, false or null).
func (d *decoder) literal(word string) error {
	if len(d.b)-d.i < len(word) || string(d.b[d.i:d.i+len(word)]) != word {
		return d.fail("bad literal")
	}
	d.i += len(word)
	return nil
}

// null consumes a null if one comes next.
func (d *decoder) null() (bool, error) {
	if d.next() != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

// container consumes an object or array, calling each for every member:
// for an object after its key, which is valid only until the call
// returns; for an array with a nil key.
func (d *decoder) container(open byte, each func(key []byte) error) error {
	if d.next() != open {
		return d.fail("unexpected value type")
	}
	if d.depth++; d.depth > maxDepth {
		return d.fail("nesting too deep")
	}
	closing := byte(']')
	if open == '{' {
		closing = '}'
	}
	d.i++
	if d.next() == closing {
		d.i++
		d.depth--
		return nil
	}
	for {
		var key []byte
		if open == '{' {
			if d.next() != '"' {
				return d.fail("object key is not a string")
			}
			var err error
			if key, err = d.stringBytes(); err != nil {
				return err
			}
			if d.next() != ':' {
				return d.fail("missing colon")
			}
			d.i++
		}
		if err := each(key); err != nil {
			return err
		}
		switch d.next() {
		case ',':
			d.i++
		case closing:
			d.i++
			d.depth--
			return nil
		default:
			return d.fail("missing comma")
		}
	}
}

// skip consumes and validates any one value.
func (d *decoder) skip() error {
	switch c := d.next(); {
	case c == '"':
		_, _, err := d.rawString()
		return err
	case c == '{' || c == '[':
		return d.container(c, func([]byte) error { return d.skip() })
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	_, _, err := d.number()
	return err
}

// number consumes a JSON number, reporting whether it is an integer (no
// fraction, no exponent).
func (d *decoder) number() (tok []byte, integer bool, err error) {
	start, b, i := d.i, d.b, d.i
	digits := func() int {
		n := 0
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
			n++
		}
		return n
	}
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case digits() == 0:
		return nil, false, d.fail("bad value")
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		i++
		if digits() == 0 {
			return nil, false, d.fail("bad number")
		}
		integer = false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return nil, false, d.fail("bad number")
		}
		integer = false
	}
	d.i = i
	return b[start:i], integer, nil
}

// magnitude parses an integer token's digits; ok is false past uint64.
func magnitude(tok []byte) (neg bool, n uint64, ok bool) {
	if neg = tok[0] == '-'; neg {
		tok = tok[1:]
	}
	for _, c := range tok {
		if n > (1<<64-1)/10 {
			return neg, 0, false
		}
		m := n*10 + uint64(c-'0')
		if m < n*10 {
			return neg, 0, false
		}
		n = m
	}
	return neg, n, true
}

// integer consumes an integer value into an int64 (a uint64 when
// unsigned); null reads as 0.
func (d *decoder) integer(unsigned bool) (uint64, error) {
	if null, err := d.null(); null || err != nil {
		return 0, err
	}
	tok, integer, err := d.number()
	if err != nil {
		return 0, err
	}
	neg, n, ok := magnitude(tok)
	switch {
	case !integer || !ok:
	case unsigned && !neg:
		return n, nil
	case !unsigned && !neg && n <= 1<<63-1:
		return n, nil
	case !unsigned && neg && n <= 1<<63:
		return -n, nil
	}
	return 0, d.fail(fmt.Sprintf("number %s does not fit the field", tok))
}

func (d *decoder) int64v() (int64, error) {
	n, err := d.integer(false)
	return int64(n), err
}

// intv is int64v for an int field, which may be narrower.
func (d *decoder) intv() (int, error) {
	n, err := d.int64v()
	if err == nil && int64(int(n)) != n {
		err = d.fail(fmt.Sprintf("number %d does not fit the field", n))
	}
	return int(n), err
}

// boolean consumes true, false or null (false).
func (d *decoder) boolean() (bool, error) {
	switch d.next() {
	case 't':
		return true, d.literal("true")
	case 'f':
		return false, d.literal("false")
	case 'n':
		return false, d.literal("null")
	}
	return false, d.fail("not a boolean")
}

// rawString consumes a string and returns its text between the quotes;
// plain reports that the text needs no unescaping and is valid UTF-8.
func (d *decoder) rawString() (text []byte, plain bool, err error) {
	b := d.b
	i := d.i + 1
	plain = true
	for i < len(b) {
		switch c := b[i]; {
		case c == '"':
			text, d.i = b[d.i+1:i], i+1
			return text, plain, nil
		case c == '\\':
			plain = false
			if i+1 >= len(b) {
				return nil, false, d.fail("unterminated string")
			}
			switch b[i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i += 2
			case 'u':
				if hex4(b[i+2:]) < 0 {
					return nil, false, d.fail("bad \\u escape")
				}
				i += 6
			default:
				return nil, false, d.fail("bad escape")
			}
		case c < ' ':
			return nil, false, d.fail("control byte in string")
		case c < utf8.RuneSelf:
			i++
		default:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				plain = false
			}
			i += size
		}
	}
	return nil, false, d.fail("unterminated string")
}

// hex4 parses the four hex digits at the start of b, -1 if there are
// none.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
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
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// stringBytes consumes a string and returns its unescaped text, valid
// until the next string is read.
func (d *decoder) stringBytes() ([]byte, error) {
	if d.next() != '"' {
		return nil, d.fail("not a string")
	}
	text, plain, err := d.rawString()
	if err != nil || plain {
		return text, err
	}
	d.esc = unescape(d.esc[:0], text)
	return d.esc, nil
}

// unescape appends text, a validated string body, as Unmarshal decodes
// it: escapes resolved, a surrogate pair joined, a lone surrogate and
// each byte of invalid UTF-8 made U+FFFD.
func unescape(out, text []byte) []byte {
	for i := 0; i < len(text); {
		c := text[i]
		switch {
		case c == '\\':
			switch e := text[i+1]; e {
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(text[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					r2 := rune(-1)
					if i+1 < len(text) && text[i] == '\\' && text[i+1] == 'u' {
						r2 = hex4(text[i+2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
						i += 6
						r = dec
					} else {
						r = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, r)
				continue
			default: // '"', '\\', '/'
				out = append(out, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			out = append(out, c)
			i++
		default:
			r, size := utf8.DecodeRune(text[i:])
			out = utf8.AppendRune(out, r)
			i += size
		}
	}
	return out
}

// str consumes a string value, copied out of the frame; null reads as "".
func (d *decoder) str() (string, error) {
	if null, err := d.null(); null || err != nil {
		return "", err
	}
	b, err := d.stringBytes()
	return string(b), err
}

// strs consumes an array of strings: null is nil, [] an empty slice.
func (d *decoder) strs() ([]string, error) {
	if null, err := d.null(); null || err != nil {
		return nil, err
	}
	out := []string{}
	err := d.container('[', func([]byte) error {
		s, err := d.str()
		out = append(out, s)
		return err
	})
	return out, err
}

// fields names the keys of one frame type, with their folded forms.
type fields struct{ names, folded []string }

func newFields(names ...string) fields {
	fs := fields{names: names}
	for _, n := range names {
		fs.folded = append(fs.folded, string(foldName(nil, []byte(n))))
	}
	return fs
}

// index returns the index of the field the key names, -1 for none. Like
// Unmarshal it prefers an exact match and otherwise compares the key
// folded as encoding/json folds names.
func (fs fields) index(key []byte) int {
	for i, n := range fs.names {
		if string(key) == n {
			return i
		}
	}
	var arr [32]byte
	folded := foldName(arr[:0], key)
	for i, n := range fs.folded {
		if string(folded) == n {
			return i
		}
	}
	return -1
}

// foldName appends in folded as encoding/json folds field names: ASCII
// letters upper-cased, every other rune replaced by the smallest rune of
// its simple case-folding orbit.
func foldName(out, in []byte) []byte {
	for i := 0; i < len(in); {
		if c := in[i]; c < utf8.RuneSelf {
			if 'a' <= c && c <= 'z' {
				c -= 'a' - 'A'
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(in[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		out = utf8.AppendRune(out, r)
		i += n
	}
	return out
}

// object consumes an object whose known keys are fields: decode is
// called with the index of each known key present, once per field (a
// field given twice is an error); unknown keys are skipped.
func (d *decoder) object(fs fields, decode func(f int) error) error {
	var seen uint32
	return d.container('{', func(key []byte) error {
		f := fs.index(key)
		if f < 0 {
			return d.skip()
		}
		if seen&(1<<f) != 0 {
			return d.fail("key given twice")
		}
		seen |= 1 << f
		return decode(f)
	})
}

var requestFields = newFields("id", "type", "relation", "col", "value", "lo", "hi", "lo_open", "hi_open", "insert", "tuple", "trace")

func (d *decoder) request(r *Request) error {
	*r = Request{}
	if null, err := d.null(); null || err != nil {
		return err
	}
	return d.object(requestFields, func(f int) (err error) {
		switch f {
		case 0:
			r.ID, err = d.integer(true)
		case 1:
			r.Type, err = d.opType()
		case 2:
			r.Relation, err = d.str()
		case 3:
			r.Col, err = d.intv()
		case 4:
			r.Value, err = d.str()
		case 5:
			r.Lo, err = d.str()
		case 6:
			r.Hi, err = d.str()
		case 7:
			r.LoOpen, err = d.boolean()
		case 8:
			r.HiOpen, err = d.boolean()
		case 9:
			r.Insert, err = d.boolean()
		case 10:
			r.Tuple, err = d.strs()
		case 11:
			r.Trace, err = d.str()
		}
		return err
	})
}

// opType consumes a request type; the three a site answers come back as
// the package's constants, without a copy.
func (d *decoder) opType() (string, error) {
	if null, err := d.null(); null || err != nil {
		return "", err
	}
	b, err := d.stringBytes()
	switch string(b) {
	case OpScan:
		return OpScan, err
	case OpFetch:
		return OpFetch, err
	case OpApply:
		return OpApply, err
	}
	return string(b), err
}

var responseFields = newFields("id", "ok", "err", "tuples", "arity", "changed", "spans")

func (d *decoder) response(r *Response) error {
	*r = Response{}
	if null, err := d.null(); null || err != nil {
		return err
	}
	return d.object(responseFields, func(f int) (err error) {
		switch f {
		case 0:
			r.ID, err = d.integer(true)
		case 1:
			r.OK, err = d.boolean()
		case 2:
			r.Err, err = d.str()
		case 3:
			r.Tuples, err = d.tuples()
		case 4:
			r.Arity, err = d.intv()
		case 5:
			r.Changed, err = d.boolean()
		case 6:
			r.Spans, err = d.spans()
		}
		return err
	})
}

// tuples consumes a response's tuples, an array of string arrays, in at
// most three allocations however many there are: one []string holds every
// value, one [][]string every tuple, and one string the text of the
// values the intern pool does not hold — a value it holds is the pool's
// own rendering (relation.PooledKey), byte for byte what was sent. null
// is nil and [] an empty slice at both levels, and a null value reads as
// "", as in str.
func (d *decoder) tuples() ([][]string, error) {
	if null, err := d.null(); null || err != nil {
		return nil, err
	}
	sc := textPool.Get().(*textScratch)
	defer sc.put()
	err := d.container('[', func([]byte) error {
		if null, err := d.null(); null || err != nil {
			sc.arities = append(sc.arities, -1)
			return err
		}
		k := len(sc.keys)
		err := d.container('[', func([]byte) error {
			var b []byte
			null, err := d.null()
			if !null && err == nil {
				b, err = d.stringBytes()
			}
			key, pooled := relation.PooledKey(b)
			if !pooled {
				sc.text = append(sc.text, b...)
			}
			sc.keys, sc.ends = append(sc.keys, key), append(sc.ends, len(sc.text))
			return err
		})
		sc.arities = append(sc.arities, len(sc.keys)-k)
		return err
	})
	if err != nil {
		return nil, err
	}
	text, vals := string(sc.text), make([]string, len(sc.keys))
	start := 0
	for i, end := range sc.ends {
		if vals[i] = sc.keys[i]; end > start {
			vals[i] = text[start:end]
		}
		start = end
	}
	out := make([][]string, len(sc.arities))
	for i, n := range sc.arities {
		if n >= 0 {
			out[i], vals = vals[:n:n], vals[n:]
		}
	}
	return out, nil
}

// textScratch is where tuples collects a response's values before it
// copies them out: each value's pooled rendering (or ""), the text of the
// others and where each value ends in it, and how many values each
// tuple has (-1 for null).
type textScratch struct {
	keys          []string
	text          []byte
	ends, arities []int
}

var textPool = sync.Pool{New: func() any { return new(textScratch) }}

// put returns the scratch to the pool, unless a rare large response grew
// it past maxPooled.
func (sc *textScratch) put() {
	if cap(sc.text) > maxPooled || 16*max(cap(sc.keys), cap(sc.arities)) > maxPooled {
		return
	}
	sc.keys, sc.text, sc.ends, sc.arities = sc.keys[:0], sc.text[:0], sc.ends[:0], sc.arities[:0]
	textPool.Put(sc)
}

func (d *decoder) spans() ([]WireSpan, error) {
	if null, err := d.null(); null || err != nil {
		return nil, err
	}
	out := []WireSpan{}
	err := d.container('[', func([]byte) error {
		out = append(out, WireSpan{})
		return d.span(&out[len(out)-1])
	})
	return out, err
}

var spanFields = newFields("trace_id", "span_id", "parent", "name", "service", "start_unix_nano", "duration_ns", "attrs", "err")

func (d *decoder) span(s *WireSpan) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	return d.object(spanFields, func(f int) (err error) {
		switch f {
		case 0:
			s.TraceID, err = d.str()
		case 1:
			s.SpanID, err = d.str()
		case 2:
			s.Parent, err = d.str()
		case 3:
			s.Name, err = d.str()
		case 4:
			s.Service, err = d.str()
		case 5:
			s.StartNS, err = d.int64v()
		case 6:
			s.Duration, err = d.int64v()
		case 7:
			s.Attrs, err = d.attrs()
		case 8:
			s.Err, err = d.str()
		}
		return err
	})
}

// attrs consumes a string map: null is nil, {} an empty map, and a key
// given twice keeps its last value, as in Unmarshal.
func (d *decoder) attrs() (map[string]string, error) {
	if null, err := d.null(); null || err != nil {
		return nil, err
	}
	m := map[string]string{}
	err := d.container('{', func(key []byte) error {
		k := string(key)
		v, err := d.str()
		m[k] = v
		return err
	})
	return m, err
}
