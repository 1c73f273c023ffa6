package netdist

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// awkward is text a string field must carry byte for byte: quotes and
// backslashes, control bytes, the HTML characters, invalid UTF-8 (which a
// JSON codec replaced by U+FFFD), an encoded lone surrogate and
// multi-byte runes.
const awkward = "a\"b\\c\b\f\n\r\t\x00\x1f<>&\x7f\xff\xc3(é\xed\xa0\x80 \U0001F600"

func codecFrames() []any {
	return []any{
		&Request{},
		&Request{ID: 1<<64 - 1, Type: OpScan, Relation: "dept"},
		&Request{ID: 2, Type: OpFetch, Relation: "r", Col: -3, Value: "#50"},
		&Request{ID: 3, Type: OpFetch, Relation: "r", Col: 1 << 40, Lo: "#1/2", Hi: "$z", LoOpen: true, HiOpen: true},
		&Request{ID: 4, Type: OpApply, Relation: "emp", Insert: true, Tuple: []string{"$ann", "#-7", ""}, Trace: "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"},
		&Request{ID: 5, Type: awkward, Relation: awkward, Value: awkward, Tuple: []string{}},
		&Response{},
		&Response{ID: 6, OK: true, Tuples: [][]string{{"#1", "$a"}, nil, {}, {awkward}}, Arity: 2},
		&Response{ID: 7, Err: awkward, Changed: true, Arity: -1 << 40},
		&Response{ID: 8, OK: true, Tuples: [][]string{}, Spans: []WireSpan{
			{TraceID: "t", SpanID: "s", Name: "site.fetch", Service: "site", StartNS: -1, Duration: 1 << 62,
				Attrs: map[string]string{"relation": "r", "b": awkward, awkward: "", "a": "1"}},
			{Parent: "p", Err: "boom", Attrs: map[string]string{}},
		}},
	}
}

// newLike returns a fresh zero value of v's frame type.
func newLike(v any) any {
	if _, ok := v.(*Request); ok {
		return &Request{}
	}
	return &Response{}
}

// wireForm is what v decodes to. An empty slice or map travels as a
// count of 0 and comes back nil: neither side tells the two apart (a
// coordinator counts a response's tuples, a site decodes an apply's
// tuple by its length, span attributes are only read).
func wireForm(v any) any {
	if r, ok := v.(*Request); ok {
		out := *r
		out.Tuple = nilIfEmpty(out.Tuple)
		return &out
	}
	out := *v.(*Response)
	out.Tuples = nilIfEmpty(slices.Clone(out.Tuples))
	for i := range out.Tuples {
		out.Tuples[i] = nilIfEmpty(out.Tuples[i])
	}
	out.Spans = nilIfEmpty(slices.Clone(out.Spans))
	for i := range out.Spans {
		if len(out.Spans[i].Attrs) == 0 {
			out.Spans[i].Attrs = nil
		}
	}
	return &out
}

func nilIfEmpty[S ~[]E, E any](s S) S {
	if len(s) == 0 {
		return nil
	}
	return s
}

// checkRoundTrip fails unless v's body decodes to v's wire form, the
// decoded value encodes to the same body, and the body is refused cut
// short by any number of bytes, with a byte more, and as the other frame
// type.
func checkRoundTrip(t *testing.T, v any) {
	t.Helper()
	body, err := appendBody(nil, v)
	if err != nil {
		t.Fatal(err)
	}
	got := newLike(v)
	if err := decodeBody(body, got); err != nil || !reflect.DeepEqual(got, wireForm(v)) {
		t.Fatalf("%+v decodes to\n%#v (err %v), want\n%#v", v, got, err, wireForm(v))
	}
	if again, err := appendBody(nil, got); err != nil || !bytes.Equal(again, body) {
		t.Fatalf("%+v re-encodes to %q (err %v), not %q", got, again, err, body)
	}
	for n := range len(body) {
		if err := decodeBody(body[:n], newLike(v)); err == nil {
			t.Fatalf("%+v: its first %d of %d bytes decoded", v, n, len(body))
		}
	}
	if err := decodeBody(append(body, 0), newLike(v)); err == nil || !strings.Contains(err.Error(), "1 bytes after the frame") {
		t.Fatalf("%+v: a trailing byte decoded (err %v)", v, err)
	}
	other := any(&Request{})
	if _, ok := v.(*Request); ok {
		other = &Response{}
	}
	if err := decodeBody(body, other); err == nil || !strings.Contains(err.Error(), "format byte") {
		t.Fatalf("%+v: decoded as a %T (err %v)", v, other, err)
	}
}

func TestFrameCodecRoundTrips(t *testing.T) {
	for _, v := range codecFrames() {
		checkRoundTrip(t, v)
	}
	// What the decoder refuses beyond a truncated body, trailing bytes and
	// the other frame type: an old peer's JSON, a format byte it does not
	// know, a varint longer than it needs, unknown flag bits, attribute
	// keys out of order or repeated, and a count larger than the bytes
	// left can hold — refused before anything is allocated for it, so a
	// short hostile body cannot make the decoder allocate.
	const huge = 1 << 20 // elements: tens of MiB if allocated
	count := func(prefix string) string {
		return string(binary.AppendUvarint([]byte(prefix), huge)) + "\x00\x00\x00"
	}
	for _, c := range []struct {
		v    any
		body string
		err  string
	}{
		{&Request{}, `{"id":1,"type":"scan"}`, "format byte 0x7b"},
		{&Response{}, `{"id":1,"ok":true}`, "format byte 0x7b"},
		{&Request{}, "\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00", "format byte 0x03"},
		{&Request{}, "", "truncated"},
		{&Request{}, "\x01\x80\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00", "malformed varint"},
		{&Request{}, "\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x7f\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00", "malformed varint"},
		{&Request{}, "\x01\x00\x00\x00\x00\x00\x00\x00\x08\x00\x00", "unknown flags 0x08"},
		{&Response{}, "\x02\x00\x04\x00\x00\x00\x00", "unknown flags 0x04"},
		{&Response{}, "\x02\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02\x01b\x00\x01a\x00\x00", `"a" out of order`},
		{&Response{}, "\x02\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x02\x01a\x00\x01a\x00\x00", `"a" out of order`},
		{&Request{}, count("\x01\x00"), "exceeds the"},                                                  // Type's length
		{&Request{}, count("\x01\x00\x00\x00\x00\x00\x00\x00\x00"), "exceeds the"},                      // Tuple
		{&Response{}, count("\x02\x00\x00\x00"), "exceeds the"},                                         // Tuples
		{&Response{}, count("\x02\x00\x00\x00\x01"), "exceeds the"},                                     // a tuple's values
		{&Response{}, count("\x02\x00\x00\x00\x00\x00"), "exceeds the"},                                 // Spans
		{&Response{}, "\x02\x00\x00\x00\x00\x00\x02" + strings.Repeat("\x00", 10), "exceeds the"},       // two spans in 10 bytes
		{&Response{}, count("\x02\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"), "exceeds the"}, // Attrs
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decodeBody([]byte(c.body), c.v)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%T %q: err %v, want %q", c.v, c.body, err, c.err)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
			t.Errorf("%T %q: refusing it allocated %d bytes", c.v, c.body, n)
		}
	}
}

type countingWriter struct {
	writes int
	buf    bytes.Buffer
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.writes++
	return w.buf.Write(p)
}

// TestWriteFrameWritesOnce: a frame goes out in one Write — one syscall
// and, with TCP_NODELAY, one segment — and is the length prefix followed
// by the body.
func TestWriteFrameWritesOnce(t *testing.T) {
	for _, v := range codecFrames() {
		var w countingWriter
		if err := WriteFrame(&w, v); err != nil {
			t.Fatal(err)
		}
		body, _ := appendBody(nil, v)
		want := append(binary.BigEndian.AppendUint32(nil, uint32(len(body))), body...)
		if w.writes != 1 || !bytes.Equal(w.buf.Bytes(), want) {
			t.Errorf("%+v: %d writes of %q, want one of %q", v, w.writes, w.buf.Bytes(), want)
		}
	}
	if err := WriteFrame(&countingWriter{}, map[string]any{"id": 1}); err == nil {
		t.Error("a map was framed")
	}
}

// TestDecodedFrameOutlivesBuffer: every frame is read into the same
// pooled buffer, so a value decoded earlier must hold no byte of it.
func TestDecodedFrameOutlivesBuffer(t *testing.T) {
	frames := codecFrames()
	var stream bytes.Buffer
	for _, v := range frames {
		if err := WriteFrame(&stream, v); err != nil {
			t.Fatal(err)
		}
	}
	// Between two of them, a frame of other bytes that fills the buffer
	// without outgrowing it.
	var overwrite bytes.Buffer
	for range frames {
		if err := WriteFrame(&overwrite, &Response{Err: strings.Repeat("Z", 900)}); err != nil {
			t.Fatal(err)
		}
	}
	var got []any
	for _, v := range frames {
		out := newLike(v)
		if err := ReadFrame(&stream, out); err != nil {
			t.Fatal(err)
		}
		got = append(got, out)
		if err := ReadFrame(&overwrite, &Response{}); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range frames {
		if !reflect.DeepEqual(got[i], wireForm(v)) {
			t.Errorf("frame %d changed after the buffer was reused:\n%#v\nwant\n%#v", i, got[i], wireForm(v))
		}
	}
}

// FuzzFrameCodec: a frame built from fuzzed fields round-trips (see
// checkRoundTrip); arbitrary bytes never panic the decoder; a body it
// accepts re-encodes to the same bytes; and a value decoded through the
// pooled buffer is unchanged after the buffer is reused.
func FuzzFrameCodec(f *testing.F) {
	f.Add(uint64(1), "scan", "dept", "#5", int64(0), uint8(0), []byte(`{"id":1,"type":"scan"}`))
	f.Add(uint64(2), awkward, "$a", "#1/2", int64(-1), uint8(0xff), []byte("\x02\x00\x01\x00\x01\x01\x02#1\x00\x00"))
	f.Add(uint64(3), "<&>", " ", "\xed\xa0\x80", int64(1<<40), uint8(0x55), []byte("\x01\x80\x00"))
	for _, v := range codecFrames() {
		body, _ := appendBody(nil, v)
		f.Add(uint64(0), "", "", "", int64(0), uint8(0), body)
	}
	f.Fuzz(func(t *testing.T, id uint64, a, b, c string, n int64, flags uint8, raw []byte) {
		bit := func(i uint) bool { return flags&(1<<i) != 0 }
		req := &Request{ID: id, Type: a, Relation: b, Col: int(n), Value: c, Lo: b, Hi: a,
			LoOpen: bit(0), HiOpen: bit(1), Insert: bit(2), Trace: c}
		resp := &Response{ID: id, OK: bit(0), Err: c, Arity: int(n), Changed: bit(1)}
		if bit(3) {
			req.Tuple = []string{a, b, c}
			resp.Tuples = [][]string{{a}, nil, {b, c}, {}}
		}
		if bit(4) {
			resp.Spans = []WireSpan{{TraceID: a, SpanID: b, Parent: c, Name: a, Service: b, StartNS: n, Duration: -n,
				Attrs: map[string]string{a: b, b: c, c: a}, Err: a}}
		}
		checkRoundTrip(t, req)
		checkRoundTrip(t, resp)

		for _, v := range []any{&Request{}, &Response{}} {
			if decodeBody(raw, v) != nil {
				continue
			}
			if again, err := appendBody(nil, v); err != nil || !bytes.Equal(again, raw) {
				t.Fatalf("%q decodes to %#v, which encodes to %q (err %v)", raw, v, again, err)
			}
			// Reuse: read raw through ReadFrame, read a frame of other
			// bytes into the same pooled buffer, compare.
			stream := bytes.NewBuffer(binary.BigEndian.AppendUint32(nil, uint32(len(raw))))
			stream.Write(raw)
			got := newLike(v)
			if err := ReadFrame(stream, got); err != nil {
				t.Fatal(err)
			}
			var other bytes.Buffer
			if err := WriteFrame(&other, &Response{Err: strings.Repeat("Z", len(raw))}); err != nil {
				t.Fatal(err)
			}
			if err := ReadFrame(&other, &Response{}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, v) {
				t.Fatalf("%q changed after the buffer was reused: %#v, want %#v", raw, got, v)
			}
		}
	})
}
