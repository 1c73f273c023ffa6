package obs

import (
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"
)

// This file is the distributed-tracing half of the observability layer:
// a span model with W3C trace-context propagation, so one client request
// is one trace whose spans cross serve → coordinator → site processes.
// The design mirrors the Tracer discipline: everything is nil-safe, and
// with no SpanTracer attached (or a request unsampled) the hot paths pay
// one pointer check — no clock reads, no allocation.

// TraceID identifies one end-to-end request across processes.
type TraceID [16]byte

// SpanID identifies one span within a trace.
type SpanID [8]byte

// IsZero reports whether the id is the invalid all-zero value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the id is the invalid all-zero value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as lowercase hex (32 chars).
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the id as lowercase hex (16 chars).
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// ParseTraceID parses a 32-char hex trace id.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 32 {
		return t, fmt.Errorf("obs: trace id %q is not 32 hex chars", s)
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return t, fmt.Errorf("obs: trace id %q: %w", s, err)
	}
	if t.IsZero() {
		return t, fmt.Errorf("obs: trace id is all zeros")
	}
	return t, nil
}

// ParseSpanID parses a 16-char hex span id.
func ParseSpanID(s string) (SpanID, error) {
	var id SpanID
	if len(s) != 16 {
		return id, fmt.Errorf("obs: span id %q is not 16 hex chars", s)
	}
	if _, err := hex.Decode(id[:], []byte(s)); err != nil {
		return id, fmt.Errorf("obs: span id %q: %w", s, err)
	}
	if id.IsZero() {
		return id, fmt.Errorf("obs: span id is all zeros")
	}
	return id, nil
}

// SpanContext is the propagated part of a span: what crosses process
// boundaries in the traceparent header (HTTP) or the netdist Trace
// field (wire protocol).
type SpanContext struct {
	TraceID TraceID
	SpanID  SpanID
	// Sampled carries the head-sampling decision: downstream processes
	// record spans for sampled traces and skip the rest, so one decision
	// at the edge governs the whole request.
	Sampled bool
}

// IsZero reports whether the context carries no trace.
func (sc SpanContext) IsZero() bool { return sc.TraceID.IsZero() }

// Traceparent renders the context in the W3C trace-context format:
// "00-<trace-id>-<span-id>-<flags>".
func (sc SpanContext) Traceparent() string {
	flags := "00"
	if sc.Sampled {
		flags = "01"
	}
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-" + flags
}

// ParseTraceparent parses a W3C traceparent header. Unknown versions are
// accepted as long as the field layout matches (per the spec's
// forward-compatibility rule); a malformed value is an error, and the
// caller should proceed untraced.
func ParseTraceparent(s string) (SpanContext, error) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: want version-traceid-spanid-flags", s)
	}
	if len(parts[0]) != 2 || parts[0] == "ff" {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: bad version", s)
	}
	tid, err := ParseTraceID(parts[1])
	if err != nil {
		return SpanContext{}, err
	}
	sid, err := ParseSpanID(parts[2])
	if err != nil {
		return SpanContext{}, err
	}
	if len(parts[3]) != 2 {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: bad flags", s)
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(parts[3])); err != nil {
		return SpanContext{}, fmt.Errorf("obs: traceparent %q: bad flags", s)
	}
	return SpanContext{TraceID: tid, SpanID: sid, Sampled: flags[0]&1 == 1}, nil
}

// idSource mints ids. One process-wide locked PRNG: span creation is not
// on the unsampled hot path, and crypto-strength ids buy nothing here.
var idSource = struct {
	mu  sync.Mutex
	rng *rand.Rand
}{rng: rand.New(rand.NewSource(time.Now().UnixNano()))}

func newIDs() (TraceID, SpanID) {
	idSource.mu.Lock()
	defer idSource.mu.Unlock()
	var t TraceID
	var s SpanID
	for t.IsZero() {
		idSource.rng.Read(t[:])
	}
	for s.IsZero() {
		idSource.rng.Read(s[:])
	}
	return t, s
}

// NewSpanContext mints a fresh root context — what a client (SDK,
// ccload) sends when it originates a trace rather than continuing one.
func NewSpanContext(sampled bool) SpanContext {
	t, s := newIDs()
	return SpanContext{TraceID: t, SpanID: s, Sampled: sampled}
}

// NewSpanID mints a fresh span id — for spans assembled by hand (a site
// answering a traced RPC without a tracer of its own).
func NewSpanID() SpanID {
	_, s := newIDs()
	return s
}

// SpanData is one completed (or in-flight) span, the immutable record
// the TraceStore retains and the OTLP exporter writes. Parent is zero
// for the root of a process-local tree; a span whose parent id belongs
// to another process still reassembles by TraceID.
type SpanData struct {
	TraceID  TraceID
	SpanID   SpanID
	Parent   SpanID
	Name     string
	Service  string
	Start    time.Time
	Duration time.Duration
	Attrs    map[string]string
	Err      string
}

// Span is a live span handle. All methods are nil-safe: code paths hold
// a *Span that is nil whenever the request is untraced, so the "off"
// cost is one pointer check per call site.
type Span struct {
	tracer *SpanTracer

	mu    sync.Mutex
	data  SpanData
	root  bool // ending a root span completes its trace in the store
	ended bool
}

// Context returns the span's propagation context (zero for nil spans).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.data.TraceID, SpanID: s.data.SpanID, Sampled: true}
}

// SetAttr sets one attribute. No-op after End.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.data.Attrs == nil {
		s.data.Attrs = map[string]string{}
	}
	s.data.Attrs[key] = value
}

// SetError marks the span failed with the given message.
func (s *Span) SetError(msg string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.data.Err = msg
	}
}

// End stamps the duration and hands the span to the tracer's store; a
// root span additionally completes its trace. Safe to call once; later
// calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.Duration = time.Since(s.data.Start)
	data, root := s.data, s.root
	s.mu.Unlock()
	if s.tracer != nil && s.tracer.store != nil {
		s.tracer.store.record(data, root)
	}
}

// SpanTracer mints spans for one service (process). A nil tracer is the
// "spans off" arm: every method no-ops and returns nil spans.
type SpanTracer struct {
	service string
	store   *TraceStore

	mu   sync.Mutex
	rng  *rand.Rand
	rate float64
}

// NewSpanTracer builds a tracer for the named service. rate is the
// head-sampling probability for traces originating here (clamped to
// [0,1]); traces continued from an upstream context follow the upstream
// sampling decision instead. store receives completed spans (required).
func NewSpanTracer(service string, store *TraceStore, rate float64) *SpanTracer {
	return &SpanTracer{
		service: service,
		store:   store,
		rng:     rand.New(rand.NewSource(time.Now().UnixNano() ^ 0x5eed)),
		rate:    min(max(rate, 0), 1),
	}
}

// Service returns the tracer's service name ("" for nil).
func (t *SpanTracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}

// Store returns the tracer's trace store (nil for nil tracers).
func (t *SpanTracer) Store() *TraceStore {
	if t == nil {
		return nil
	}
	return t.store
}

func (t *SpanTracer) sample() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.rate >= 1 {
		return true
	}
	if t.rate <= 0 {
		return false
	}
	return t.rng.Float64() < t.rate
}

// StartRoot starts the local root span of a trace: the server-side span
// of one request. With a non-zero parent context the trace id and the
// sampling decision are inherited (the span records only when the
// upstream sampled); with a zero parent a fresh trace is minted and head
// sampling decides. Returns nil when the trace is unsampled — every
// downstream span creation then short-circuits on the nil check.
func (t *SpanTracer) StartRoot(name string, parent SpanContext) *Span {
	if t == nil {
		return nil
	}
	if parent.IsZero() {
		if !t.sample() {
			return nil
		}
		tid, sid := newIDs()
		return t.start(name, tid, sid, SpanID{}, true)
	}
	if !parent.Sampled {
		return nil
	}
	_, sid := newIDs()
	return t.start(name, parent.TraceID, sid, parent.SpanID, true)
}

// StartChild starts a child span under parent (nil parent → nil child).
func (t *SpanTracer) StartChild(parent *Span, name string) *Span {
	if t == nil || parent == nil {
		return nil
	}
	_, sid := newIDs()
	return t.start(name, parent.data.TraceID, sid, parent.data.SpanID, false)
}

func (t *SpanTracer) start(name string, tid TraceID, sid, parent SpanID, root bool) *Span {
	sp := &Span{
		tracer: t,
		root:   root,
		data: SpanData{
			TraceID: tid,
			SpanID:  sid,
			Parent:  parent,
			Name:    name,
			Service: t.service,
			Start:   time.Now(),
		},
	}
	if t.store != nil {
		t.store.open(tid)
	}
	return sp
}

// RecordChild records an already-measured child span under parent: the
// caller knows the start and duration (a queue wait, a bridged phase
// attempt) and no live handle is needed.
func (t *SpanTracer) RecordChild(parent *Span, name string, start time.Time, d time.Duration, attrs map[string]string, errMsg string) {
	if t == nil || parent == nil || t.store == nil {
		return
	}
	_, sid := newIDs()
	t.store.record(SpanData{
		TraceID:  parent.data.TraceID,
		SpanID:   sid,
		Parent:   parent.data.SpanID,
		Name:     name,
		Service:  t.service,
		Start:    start,
		Duration: d,
		Attrs:    attrs,
		Err:      errMsg,
	}, false)
}

// Adopt inserts spans recorded by another process (a site's wire-echoed
// spans) into this tracer's store, so the coordinator-side trace tree is
// complete without a separate collection pipeline.
func (t *SpanTracer) Adopt(spans []SpanData) {
	if t == nil || t.store == nil {
		return
	}
	for _, sd := range spans {
		t.store.record(sd, false)
	}
}

// SpanBridge funnels the checker's decision-trace events into the active
// request span: each phase attempt becomes a completed child span, and
// the update-end summary lands as attributes. It implements Tracer, so
// it plugs straight into core.Options.Tracer; with no active span it is
// disabled and the checker stays on the untraced path.
//
// The bridge is single-flight by design: the decision worker sets the
// active span before driving the checker and clears it after, so Emit
// never races with SetActive for the same request.
type SpanBridge struct {
	tracer *SpanTracer

	mu     sync.Mutex
	active *Span
}

// NewSpanBridge builds a bridge minting child spans through t.
func NewSpanBridge(t *SpanTracer) *SpanBridge {
	if t == nil {
		return nil
	}
	return &SpanBridge{tracer: t}
}

// Tracer returns the bridge's span tracer (nil-safe).
func (b *SpanBridge) Tracer() *SpanTracer {
	if b == nil {
		return nil
	}
	return b.tracer
}

// SetActive installs the span under which bridged events nest; nil
// clears it (and disables the bridge).
func (b *SpanBridge) SetActive(s *Span) {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.active = s
	b.mu.Unlock()
}

// Active returns the current parent span (nil when idle).
func (b *SpanBridge) Active() *Span {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.active
}

// Enabled reports whether a request span is active (Tracer interface).
func (b *SpanBridge) Enabled() bool { return b != nil && b.Active() != nil }

// Emit converts one decision-trace event into span form (Tracer
// interface): phase attempts become completed children named
// "phase.<phase>" carrying constraint/cache/verdict attributes, and the
// update bracket events annotate the active span itself.
func (b *SpanBridge) Emit(e Event) {
	sp := b.Active()
	if sp == nil {
		return
	}
	switch e.Kind {
	case KindUpdateBegin:
		sp.SetAttr("update", e.Update)
	case KindPhase:
		attrs := map[string]string{"constraint": e.Constraint}
		if e.Cache != "" {
			attrs["cache"] = e.Cache
		}
		if e.Decided {
			attrs["verdict"] = e.Verdict
		}
		if e.Certificate != "" {
			attrs["certificate"] = e.Certificate
		}
		if e.Witness != "" {
			attrs["witness"] = e.Witness
		}
		if len(e.Relations) > 0 {
			attrs["remote"] = strings.Join(e.Relations, ",")
		}
		b.tracer.RecordChild(sp, "phase."+e.Phase, time.Now().Add(-e.Duration), e.Duration, attrs, "")
	case KindUpdateEnd:
		switch {
		case e.Err != "":
			sp.SetError(e.Err)
		case e.Applied:
			sp.SetAttr("applied", "true")
		default:
			sp.SetAttr("applied", "false")
			sp.SetAttr("violation", strings.Join(e.Rejected, ","))
		}
		if e.IndexProbes > 0 {
			sp.SetAttr("index_probes", fmt.Sprint(e.IndexProbes))
		}
	}
}
