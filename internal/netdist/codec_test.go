package netdist

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"reflect"
	"strings"
	"testing"
)

// writeJSONFrame and readJSONFrame are the reflection codec the frame
// codec replaced: encoding/json around the same length prefix. They are
// the reference the differential tests hold the frame codec to, and they
// frame what the frame codec does not carry (a test's map of junk keys).
func writeJSONFrame(w io.Writer, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(body)))
	_, err = w.Write(append(hdr[:], body...))
	return err
}

func readJSONFrame(r io.Reader, v any) error {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return err
	}
	body := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(r, body); err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// awkward is text that exercises every escape Marshal writes: quotes and
// backslashes, the short control escapes and the \u00XX ones, the HTML
// characters, invalid UTF-8, a multi-byte rune and the two separators.
const awkward = "a\"b\\c\b\f\n\r\t\x00\x1f<>&\x7f\xff\xc3(é\u2028\u2029\U0001F600"

func codecFrames() []any {
	return []any{
		&Request{},
		&Request{ID: 1<<64 - 1, Type: OpScan, Relation: "dept"},
		&Request{ID: 2, Type: OpFetch, Relation: "r", Col: -3, Value: "#50"},
		&Request{ID: 3, Type: OpFetch, Relation: "r", Col: 1, Lo: "#1/2", Hi: "$z", LoOpen: true, HiOpen: true},
		&Request{ID: 4, Type: OpApply, Relation: "emp", Insert: true, Tuple: []string{"$ann", "#-7", ""}, Trace: "00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01"},
		&Request{ID: 5, Type: awkward, Relation: awkward, Value: awkward, Tuple: []string{}},
		&Response{},
		&Response{ID: 6, OK: true, Tuples: [][]string{{"#1", "$a"}, nil, {}}, Arity: 2},
		&Response{ID: 7, Err: awkward, Changed: true},
		&Response{ID: 8, OK: true, Spans: []WireSpan{
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

// checkEncodes fails unless v encodes to Marshal's bytes and both
// decoders read those bytes back to the same value.
func checkEncodes(t *testing.T, v any) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got, err := appendBody(nil, v)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("%+v encodes to\n%s (err %v), Marshal writes\n%s", v, got, err, want)
	}
	ref, dec := newLike(v), newLike(v)
	if err := json.Unmarshal(want, ref); err != nil {
		t.Fatal(err)
	}
	if err := decodeBody(want, dec); err != nil || !reflect.DeepEqual(dec, ref) {
		t.Fatalf("%s decodes to\n%#v (err %v), Unmarshal reads\n%#v", want, dec, err, ref)
	}
}

// checkDecodes fails if the frame codec reads body, as a request or a
// response, to a value Unmarshal does not, accepts a body Unmarshal
// refuses, or refuses one Unmarshal reads for any reason but the two it
// documents (a known key given twice, deep nesting).
func checkDecodes(t *testing.T, body []byte) {
	t.Helper()
	for _, v := range []any{&Request{}, &Response{}} {
		ref, got := newLike(v), newLike(v)
		refErr := json.Unmarshal(body, ref)
		switch err := decodeBody(body, got); {
		case err == nil && refErr != nil:
			t.Fatalf("%T: decoded %q, which Unmarshal refuses (%v)", v, body, refErr)
		case err == nil && !reflect.DeepEqual(got, ref):
			t.Fatalf("%T: %q decodes to\n%#v, Unmarshal reads\n%#v", v, body, got, ref)
		case err != nil && refErr == nil &&
			!strings.Contains(err.Error(), "key given twice") && !strings.Contains(err.Error(), "nesting too deep"):
			t.Fatalf("%T: refused %q (%v), which Unmarshal reads", v, body, err)
		}
	}
}

func TestFrameCodecMatchesJSON(t *testing.T) {
	for _, v := range codecFrames() {
		checkEncodes(t, v)
	}
	// What a JSON peer may send beyond Marshal's output: white space,
	// unknown keys of every kind, keys matched by case folding, nulls,
	// escapes Marshal never writes, surrogate pairs and lone halves.
	for _, body := range []string{
		` { "id" : 9 , "type" : "scan" } `,
		`{"id":1,"junk":{"a":[1,2.5e-3,true,false,null,"xé"]},"type":"fetch","more":[[[]]],"col":-0}`,
		`{"ID":1,"Type":"apply","RELATION":"r","lo_OPEN":true,"Tuple":["a"],"ſcan":1,"İd":2}`,
		`{"id":null,"type":null,"tuple":null,"col":null,"insert":null}`,
		`{"type":"\/A😀\ud83dA\ude00x\ud800","relation":"\\\"\b\f\n\r\t"}`,
		`{"tuples":[null,[],["a",null]],"spans":[null,{"attrs":{"k":null,"k":"v"}},{"attrs":null}]}`,
		`{"tuples":[],"spans":[],"ok":false}`,
		`{"id":1,"KELVIN":1,"Key":1}`,
		`null`,
		"{\"type\":\"\xff\xfe\xed\xa0\x80\"}",
		// Refused by both.
		`{"id":-1}`, `{"id":1.5}`, `{"col":1e2}`, `{"id":18446744073709551616}`, `{"col":9223372036854775808}`,
		`{"type":1}`, `{"ok":"true"}`, `{"tuple":"a"}`, `{"tuples":[1]}`, `{"spans":[1]}`, `{"spans":[{"attrs":{"a":1}}]}`,
		`{"id":01}`, `{"id":1,}`, `{,}`, `{"id":1 "type":"x"}`, `{"type":"a\'"}`, `{"type":"\u12"}`, "{\"type\":\"a\x01\"}",
		`{"id":1}x`, `[]`, `"s"`, ``, `{"id":tru}`, `{"a":[1,]}`, `{"a":-}`, `{"a":1.}`, `{"a":1e}`, `{"a"}`,
	} {
		checkDecodes(t, []byte(body))
	}
	// The documented strictness: a known key twice (Unmarshal keeps the
	// last), a skipped value nested past maxDepth.
	for _, body := range []string{
		`{"id":1,"id":2}`,
		`{"id":1,"ID":2}`,
		`{"junk":` + strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1) + `}`,
	} {
		if err := decodeBody([]byte(body), &Request{}); err == nil {
			t.Errorf("%q decoded", body)
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
// by Marshal's bytes.
func TestWriteFrameWritesOnce(t *testing.T) {
	for _, v := range codecFrames() {
		var w countingWriter
		if err := WriteFrame(&w, v); err != nil {
			t.Fatal(err)
		}
		var ref bytes.Buffer
		if err := writeJSONFrame(&ref, v); err != nil {
			t.Fatal(err)
		}
		if w.writes != 1 || !bytes.Equal(w.buf.Bytes(), ref.Bytes()) {
			t.Errorf("%+v: %d writes of %q, want one of %q", v, w.writes, w.buf.Bytes(), ref.Bytes())
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
		body, _ := json.Marshal(v)
		want := newLike(v)
		if err := json.Unmarshal(body, want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("frame %d changed after the buffer was reused:\n%#v\nwant\n%#v", i, got[i], want)
		}
	}
}

// FuzzFrameCodec holds the frame codec to encoding/json: a frame built
// from fuzzed fields encodes to Marshal's bytes and decodes back to what
// Unmarshal reads; arbitrary bytes never panic the decoder, which reads
// them to Unmarshal's value or refuses them; and a value decoded earlier
// is unchanged after the pooled buffer is reused.
func FuzzFrameCodec(f *testing.F) {
	f.Add(uint64(1), "scan", "dept", "#5", int64(0), uint8(0), []byte(`{"id":1,"type":"scan"}`))
	f.Add(uint64(2), awkward, "$a", "#1/2", int64(-1), uint8(0xff), []byte(`{"tuples":[["#1"],null],"spans":[{"attrs":{"k":"v"}}]}`))
	f.Add(uint64(3), "<&>", "\u2028", "\xed\xa0\x80", int64(1<<40), uint8(0x55), []byte(`{"Type":"x","İd":1,"ſpans":[]}`))
	for _, v := range codecFrames() {
		body, _ := json.Marshal(v)
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
		checkEncodes(t, req)
		checkEncodes(t, resp)
		checkDecodes(t, raw)

		// Reuse: decode raw (when it decodes) through ReadFrame, read a
		// frame of other bytes into the same pooled buffer, compare.
		var first, second bytes.Buffer
		if err := writeJSONFrame(&first, json.RawMessage(raw)); err != nil {
			return // raw is not JSON
		}
		var got Response
		if err := ReadFrame(&first, &got); err != nil {
			return
		}
		if err := WriteFrame(&second, &Response{Err: strings.Repeat("Z", max(len(raw)-26, 0))}); err != nil {
			t.Fatal(err)
		}
		if err := ReadFrame(&second, &Response{}); err != nil {
			t.Fatal(err)
		}
		var want Response
		if err := json.Unmarshal(raw, &want); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%q changed after the buffer was reused: %#v, want %#v (%v)", raw, got, want, err)
		}
	})
}
