package netdist

import (
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/relation"
)

// This file is the frame codec. A frame is a 4-byte big-endian body
// length and the body: one format byte, requestFormat or responseFormat,
// then the frame's fields in declaration order. ID and every count are
// uvarints; Col, Arity and the span times are zig-zag varints; a frame's
// bools share one flags byte at the place of its first; a string is a
// uvarint length and its raw bytes, so every string — invalid UTF-8
// included — arrives byte for byte. A slice or map is its count and its
// elements, and an empty one decodes as nil. Span attributes go in key
// order.
//
// Only this package's processes read these frames, so the decoder reads
// exactly what the encoder writes: an accepted body re-encodes to the
// same bytes. It refuses a truncated body, trailing bytes, any other
// format byte (an old peer's JSON body starts with '{'), a varint longer
// than it needs to be, unknown flag bits, attribute keys out of order,
// and a count larger than the bytes left can hold — checked before
// anything is allocated, so a hostile prefix cannot make it allocate.
//
// Both sides work in pooled buffers: a frame is encoded into one buffer
// and written with one Write, read into one, and decoded from it. Every
// string the decoder stores is copied out of the buffer, so a decoded
// frame stays valid after the buffer is reused.

// The format bytes: the first byte of a body names its frame type.
const (
	requestFormat  byte = 1
	responseFormat byte = 2
)

// The bits of a request's flags byte.
const (
	flagLoOpen byte = 1 << iota
	flagHiOpen
	flagInsert
)

// The bits of a response's flags byte.
const (
	flagOK byte = 1 << iota
	flagChanged
)

// minSpan is the fewest bytes a span takes: six empty strings, two
// one-byte varints and an attribute count.
const minSpan = 9

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

// appendBody appends v's body to b.
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
	switch v := v.(type) {
	case *Request:
		d.request(v)
	case *Response:
		d.response(v)
	default:
		return fmt.Errorf("netdist: cannot decode a frame into a %T", v)
	}
	if len(d.b) > 0 {
		d.fail("%d bytes after the frame", len(d.b))
	}
	return d.err
}

// --- encoder ---------------------------------------------------------------

func appendRequest(b []byte, r *Request) []byte {
	b = binary.AppendUvarint(append(b, requestFormat), r.ID)
	b = appendStr(appendStr(b, r.Type), r.Relation)
	b = binary.AppendVarint(b, int64(r.Col))
	b = appendStr(appendStr(appendStr(b, r.Value), r.Lo), r.Hi)
	b = append(b, flag(r.LoOpen, flagLoOpen)|flag(r.HiOpen, flagHiOpen)|flag(r.Insert, flagInsert))
	return appendStr(appendStrs(b, r.Tuple), r.Trace)
}

func appendResponse(b []byte, r *Response) []byte {
	b = binary.AppendUvarint(append(b, responseFormat), r.ID)
	b = appendStr(append(b, flag(r.OK, flagOK)|flag(r.Changed, flagChanged)), r.Err)
	b = binary.AppendUvarint(b, uint64(len(r.Tuples)))
	for _, t := range r.Tuples {
		b = appendStrs(b, t)
	}
	b = binary.AppendVarint(b, int64(r.Arity))
	b = binary.AppendUvarint(b, uint64(len(r.Spans)))
	for i := range r.Spans {
		b = appendSpan(b, &r.Spans[i])
	}
	return b
}

func appendSpan(b []byte, s *WireSpan) []byte {
	b = appendStr(appendStr(appendStr(appendStr(appendStr(b, s.TraceID), s.SpanID), s.Parent), s.Name), s.Service)
	b = binary.AppendVarint(binary.AppendVarint(b, s.StartNS), s.Duration)
	keys := make([]string, 0, len(s.Attrs))
	for k := range s.Attrs {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	b = binary.AppendUvarint(b, uint64(len(keys)))
	for _, k := range keys {
		b = appendStr(appendStr(b, k), s.Attrs[k])
	}
	return appendStr(b, s.Err)
}

func flag(set bool, bit byte) byte {
	if set {
		return bit
	}
	return 0
}

func appendStr(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendStrs(b []byte, ss []string) []byte {
	b = binary.AppendUvarint(b, uint64(len(ss)))
	for _, s := range ss {
		b = appendStr(b, s)
	}
	return b
}

// --- decoder ---------------------------------------------------------------

// decoder reads one frame body. The first failure sticks: it empties what
// is left, so every later read yields a zero value and the decode runs
// out quickly.
type decoder struct {
	b   []byte // the body not yet read
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("netdist: bad frame: "+format, args...)
	}
	d.b = nil
}

func (d *decoder) byte1() byte {
	if len(d.b) == 0 {
		d.fail("truncated")
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// format reads the format byte, which must be want.
func (d *decoder) format(want byte) {
	if c := d.byte1(); c != want {
		d.fail("format byte %#02x, want %#02x", c, want)
	}
}

// flags reads a flags byte whose bits must lie in known.
func (d *decoder) flags(known byte) byte {
	c := d.byte1()
	if c&^known != 0 {
		d.fail("unknown flags %#02x", c)
	}
	return c
}

// uvarint reads a uvarint in its shortest form.
func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	switch {
	case n == 0:
		d.fail("truncated")
	case n < 0 || n > 1 && d.b[n-1] == 0:
		d.fail("malformed varint")
	default:
		d.b = d.b[n:]
		return v
	}
	return 0
}

func (d *decoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *decoder) int() int {
	v := d.varint()
	if int64(int(v)) != v {
		d.fail("%d overflows an int", v)
	}
	return int(v)
}

// count reads the count of elements that take at least size bytes each,
// refusing one the bytes left cannot hold.
func (d *decoder) count(size int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)/size) {
		d.fail("count %d exceeds the %d bytes left", n, len(d.b))
		return 0
	}
	return int(n)
}

// bytes reads a string's bytes, which are the buffer's own.
func (d *decoder) bytes() []byte {
	n := d.count(1)
	s := d.b[:n:n]
	d.b = d.b[n:]
	return s
}

func (d *decoder) str() string { return string(d.bytes()) }

func (d *decoder) strs() []string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		out[i] = d.str()
	}
	return out
}

func (d *decoder) request(r *Request) {
	d.format(requestFormat)
	*r = Request{ID: d.uvarint(), Type: opType(d.bytes()), Relation: d.str(), Col: d.int(), Value: d.str(), Lo: d.str(), Hi: d.str()}
	f := d.flags(flagLoOpen | flagHiOpen | flagInsert)
	r.LoOpen, r.HiOpen, r.Insert = f&flagLoOpen != 0, f&flagHiOpen != 0, f&flagInsert != 0
	r.Tuple, r.Trace = d.strs(), d.str()
}

// opType returns a request type; the three a site answers come back as
// the package's constants, without a copy.
func opType(b []byte) string {
	switch string(b) {
	case OpScan:
		return OpScan
	case OpFetch:
		return OpFetch
	case OpApply:
		return OpApply
	}
	return string(b)
}

func (d *decoder) response(r *Response) {
	d.format(responseFormat)
	*r = Response{ID: d.uvarint()}
	f := d.flags(flagOK | flagChanged)
	r.OK, r.Changed = f&flagOK != 0, f&flagChanged != 0
	r.Err, r.Tuples, r.Arity = d.str(), d.tuples(), d.int()
	if n := d.count(minSpan); n > 0 {
		r.Spans = make([]WireSpan, n)
		for i := range r.Spans {
			d.span(&r.Spans[i])
		}
	}
}

// tuples reads a response's tuples in at most three allocations however
// many there are: one []string holds every value, one [][]string every
// tuple, and one string the text of the values the intern pool does not
// hold — a value it holds is the pool's own rendering
// (relation.PooledKey), byte for byte what was sent.
func (d *decoder) tuples() [][]string {
	n := d.count(1)
	if n == 0 {
		return nil
	}
	sc := textPool.Get().(*textScratch)
	defer sc.put()
	for range n {
		k := d.count(1)
		for range k {
			b := d.bytes()
			key, pooled := relation.PooledKey(b)
			if !pooled {
				sc.text = append(sc.text, b...)
			}
			sc.keys, sc.ends = append(sc.keys, key), append(sc.ends, len(sc.text))
		}
		sc.arities = append(sc.arities, k)
	}
	text, vals := string(sc.text), make([]string, len(sc.keys))
	start := 0
	for i, end := range sc.ends {
		if vals[i] = sc.keys[i]; end > start {
			vals[i] = text[start:end]
		}
		start = end
	}
	out := make([][]string, n)
	for i, k := range sc.arities {
		if k > 0 {
			out[i], vals = vals[:k:k], vals[k:]
		}
	}
	return out
}

// textScratch is where tuples collects a response's values before it
// copies them out: each value's pooled rendering (or ""), the text of the
// others and where each value ends in it, and how many values each
// tuple has.
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

func (d *decoder) span(s *WireSpan) {
	*s = WireSpan{TraceID: d.str(), SpanID: d.str(), Parent: d.str(), Name: d.str(), Service: d.str(),
		StartNS: d.varint(), Duration: d.varint(), Attrs: d.attrs(), Err: d.str()}
}

// attrs reads a span's attributes, whose keys must come in increasing
// order.
func (d *decoder) attrs() map[string]string {
	n := d.count(2)
	if n == 0 {
		return nil
	}
	m := make(map[string]string, n)
	var last []byte
	for i := range n {
		k := d.bytes()
		if i > 0 && string(k) <= string(last) {
			d.fail("attribute key %q out of order", k)
		}
		m[string(k)], last = d.str(), k
	}
	return m
}
