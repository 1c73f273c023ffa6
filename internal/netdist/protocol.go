// Package netdist is the multi-site runtime: the paper's deployment of a
// local site and remote sites whose data costs a round trip. A site
// daemon (cmd/ccsited) serves one site's relations from a store.Store
// behind a small wire protocol; a Coordinator runs the staged checker
// against a local mirror and fetches remote tuples over the wire only
// when an update's plan needs the global phase — so the paper's
// "complete local tests avoid remote round trips" claim is measured in
// real requests. The same coordinator runs over TCP or over Loopback, an
// in-process transport whose sites are Servers in the same process.
//
// The wire protocol is deliberately minimal and stdlib-only:
// length-prefixed binary frames over TCP, written and read only by this
// package's processes. Each frame is a 4-byte big-endian payload length
// followed by one Request or Response in a fixed-order binary encoding
// (codec.go). A connection carries one request at a time (the client
// pools connections instead of multiplexing), so responses need no
// reordering; the echoed ID is a sanity check.
package netdist

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/relation"
)

// MaxFrame bounds a frame payload (16 MiB): a malicious or corrupt
// length prefix must not make a peer allocate unbounded memory.
const MaxFrame = 16 << 20

// Request types: a site answers the two reads the coordinator issues
// when a decision needs remote data, and applies the writes it
// propagates. Any other type is refused with OK=false.
const (
	// OpScan returns every tuple of a served relation.
	OpScan = "scan"
	// OpFetch returns the tuples of a served relation whose column Col
	// equals Value (a hash-index lookup), or, when Lo or Hi is set
	// instead, lies between the bounds (an ordered-index range).
	OpFetch = "fetch"
	// OpApply applies one insert/delete to a served relation.
	OpApply = "apply"
)

// Request is one client→site frame.
type Request struct {
	ID   uint64 `json:"id"`
	Type string `json:"type"`
	// Relation names the target relation (Scan, Fetch, Apply).
	Relation string `json:"relation,omitempty"`
	// Col and Value select Fetch's indexed lookup. Lo and Hi, each
	// optional, bound column Col instead of Value — inclusive unless
	// LoOpen or HiOpen — and select the tuples whose value there lies
	// between them; a range whose Lo lies above its Hi selects nothing.
	Col    int    `json:"col,omitempty"`
	Value  string `json:"value,omitempty"`
	Lo     string `json:"lo,omitempty"`
	Hi     string `json:"hi,omitempty"`
	LoOpen bool   `json:"lo_open,omitempty"`
	HiOpen bool   `json:"hi_open,omitempty"`
	// Insert and Tuple carry Apply's update (Tuple holds EncodeValue's
	// rendering of each value).
	Insert bool     `json:"insert,omitempty"`
	Tuple  []string `json:"tuple,omitempty"`
	// Trace, when non-empty, is the W3C traceparent of the coordinator's
	// RPC span: the site records its handling as a child span and echoes
	// it back in Response.Spans. An untraced request sends it empty.
	Trace string `json:"trace,omitempty"`
}

// readRequest is the read of rel's tuples in rg: a Scan when rg bounds
// nothing, a Fetch of Value when it is a point (the site's hash index),
// a Fetch bounded by Lo and Hi otherwise.
func readRequest(rel string, rg relation.Range) Request {
	if !rg.HasLo && !rg.HasHi {
		return Request{Type: OpScan, Relation: rel}
	}
	req := Request{Type: OpFetch, Relation: rel, Col: rg.Col}
	if v, ok := rg.Point(); ok {
		req.Value = EncodeValue(v)
		return req
	}
	if rg.HasLo {
		req.Lo, req.LoOpen = EncodeValue(rg.Lo), rg.LoOpen
	}
	if rg.HasHi {
		req.Hi, req.HiOpen = EncodeValue(rg.Hi), rg.HiOpen
	}
	return req
}

// fetchRange decodes what a Fetch selects: the range of column Col its
// bounds give, or the point Value when it has none. A bound that does not
// decode, an open flag on a missing bound, and a Value beside bounds are
// errors. It interns nothing: a read must not grow the site's intern pool
// with values the client names.
func (req *Request) fetchRange() (relation.Range, error) {
	rg := relation.Range{Col: req.Col, LoOpen: req.LoOpen, HiOpen: req.HiOpen}
	var err error
	if req.Lo == "" && req.Hi == "" && !rg.LoOpen && !rg.HiOpen {
		rg.Lo, _, err = parseValue(req.Value)
		rg.Hi, rg.HasLo, rg.HasHi = rg.Lo, true, true
		return rg, err
	}
	if req.Value != "" {
		return rg, errors.New("netdist: fetch carries both a value and bounds")
	}
	if rg.HasLo = req.Lo != ""; rg.HasLo {
		rg.Lo, _, err = parseValue(req.Lo)
	}
	if rg.HasHi = req.Hi != ""; rg.HasHi && err == nil {
		rg.Hi, _, err = parseValue(req.Hi)
	}
	if err == nil && (rg.LoOpen && !rg.HasLo || rg.HiOpen && !rg.HasHi) {
		err = errors.New("netdist: fetch bound open but missing")
	}
	return rg, err
}

// Response is one site→client frame.
type Response struct {
	ID uint64 `json:"id"`
	OK bool   `json:"ok"`
	// Err is the server-side failure when OK is false.
	Err string `json:"err,omitempty"`
	// Tuples and Arity answer Scan/Fetch.
	Tuples [][]string `json:"tuples,omitempty"`
	Arity  int        `json:"arity,omitempty"`
	// Changed answers Apply.
	Changed bool `json:"changed,omitempty"`
	// Spans carries the site-side spans of a traced request back to the
	// coordinator (set only when Request.Trace was), so the coordinator's
	// trace store holds the complete cross-process tree without a
	// separate collection pipeline.
	Spans []WireSpan `json:"spans,omitempty"`
}

// WireSpan is a completed span in wire form. Only durations are
// compared across processes during attribution, so clock skew between
// coordinator and site distorts nothing but the rendering order.
type WireSpan struct {
	TraceID  string            `json:"trace_id"`
	SpanID   string            `json:"span_id"`
	Parent   string            `json:"parent,omitempty"`
	Name     string            `json:"name"`
	Service  string            `json:"service"`
	StartNS  int64             `json:"start_unix_nano"`
	Duration int64             `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Err      string            `json:"err,omitempty"`
}

// EncodeSpan renders one span for the wire.
func EncodeSpan(sd obs.SpanData) WireSpan {
	ws := WireSpan{
		TraceID:  sd.TraceID.String(),
		SpanID:   sd.SpanID.String(),
		Name:     sd.Name,
		Service:  sd.Service,
		StartNS:  sd.Start.UnixNano(),
		Duration: int64(sd.Duration),
		Attrs:    sd.Attrs,
		Err:      sd.Err,
	}
	if !sd.Parent.IsZero() {
		ws.Parent = sd.Parent.String()
	}
	return ws
}

// DecodeSpan parses EncodeSpan's output; malformed ids fail.
func DecodeSpan(ws WireSpan) (obs.SpanData, error) {
	tid, err := obs.ParseTraceID(ws.TraceID)
	if err != nil {
		return obs.SpanData{}, err
	}
	sid, err := obs.ParseSpanID(ws.SpanID)
	if err != nil {
		return obs.SpanData{}, err
	}
	sd := obs.SpanData{
		TraceID:  tid,
		SpanID:   sid,
		Name:     ws.Name,
		Service:  ws.Service,
		Start:    time.Unix(0, ws.StartNS),
		Duration: time.Duration(ws.Duration),
		Attrs:    ws.Attrs,
		Err:      ws.Err,
	}
	if ws.Parent != "" {
		pid, err := obs.ParseSpanID(ws.Parent)
		if err != nil {
			return obs.SpanData{}, err
		}
		sd.Parent = pid
	}
	return sd, nil
}

// EncodeValue renders a constant for the wire using the store's
// canonical key syntax: "#<rational>" for numbers (exact — no float
// round-trip loss), "$<text>" for symbols. The rendering comes from the
// intern pool's precomputed key table (byte-identical to v.Key()), so
// re-encoding the same constant across mirror refreshes reuses one
// string for the process lifetime. Interning stays strictly
// process-local: only the canonical text crosses the wire.
func EncodeValue(v ast.Value) string { return relation.ValueKey(v) }

// DecodeValue parses EncodeValue's output (ast.ParseKey: a number in the
// canonical form, within ast.MaxNumberDigits). A value the intern pool
// lacks is funneled through it (relation.Canonical), so duplicated remote
// constants share one backing value and arrive pre-interned for
// fingerprinting — the exact-rational semantics are untouched, since the
// pooled value is equal to the parsed one. A value that is only looked up
// is decoded by parseValue, which interns nothing.
func DecodeValue(s string) (ast.Value, error) {
	v, pooled, err := parseValue(s)
	if pooled || err != nil {
		return v, err
	}
	return relation.Canonical(v), nil
}

// parseValue parses EncodeValue's output without entering the intern
// pool. A canonical key the pool already holds — a symbol, or an integer
// that fits an int64 — resolves to the pooled value without parsing
// (relation.LookupKey), and pooled reports it.
func parseValue(s string) (v ast.Value, pooled bool, err error) {
	if v, ok := relation.LookupKey(s); ok {
		return v, true, nil
	}
	// A clone: s may share its text with a whole response's values, which
	// a value kept past the frame must not keep alive.
	if v, err = ast.ParseKey(strings.Clone(s)); err != nil {
		return ast.Value{}, false, fmt.Errorf("netdist: %w", err)
	}
	return v, false, nil
}

// appendTuple appends t's rendering for the wire, a value's EncodeValue
// each, to dst.
func appendTuple(dst []string, t relation.Tuple) []string {
	for _, v := range t {
		dst = append(dst, EncodeValue(v))
	}
	return dst
}

// DecodeTuple parses a tuple rendered for the wire.
func DecodeTuple(ss []string) (relation.Tuple, error) {
	t := make(relation.Tuple, len(ss))
	for i, s := range ss {
		v, err := DecodeValue(s)
		if err != nil {
			return nil, err
		}
		t[i] = v
	}
	return t, nil
}

// internKey is the handle of the value s renders: the pooled one when the
// intern pool holds it (relation.KeyHandle), else s parsed and interned.
func internKey(s string) (relation.Handle, error) {
	if h, ok := relation.KeyHandle(s); ok {
		return h, nil
	}
	v, _, err := parseValue(s)
	if err != nil {
		return 0, err
	}
	return relation.Intern(v), nil
}

// RemoteError is a semantic failure reported by a site (unknown
// relation, bad request): the request reached the site and was answered,
// so it is not retried and does not mark the site unavailable.
type RemoteError struct {
	Site string
	Msg  string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("netdist: site %s: %s", e.Site, e.Msg)
}

// ErrSiteUnavailable marks an update that could not be decided because a
// site it needed was unreachable after every retry. It is a sentinel for
// errors.Is; the concrete error is a *SiteError carrying the site and
// the last transport failure.
var ErrSiteUnavailable = errors.New("netdist: site unavailable")

// SiteError wraps the last transport failure for one site. It matches
// ErrSiteUnavailable under errors.Is.
type SiteError struct {
	Site string
	Err  error
}

func (e *SiteError) Error() string {
	return fmt.Sprintf("netdist: site %s unavailable: %v", e.Site, e.Err)
}

// Unwrap exposes the underlying transport error.
func (e *SiteError) Unwrap() error { return e.Err }

// Is matches the ErrSiteUnavailable sentinel.
func (e *SiteError) Is(target error) bool { return target == ErrSiteUnavailable }
