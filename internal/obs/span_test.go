package obs

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := NewSpanContext(true)
	if sc.IsZero() || !sc.Sampled {
		t.Fatalf("NewSpanContext(true) = %+v", sc)
	}
	parsed, err := ParseTraceparent(sc.Traceparent())
	if err != nil {
		t.Fatal(err)
	}
	if parsed != sc {
		t.Fatalf("round trip changed context: %+v vs %+v", parsed, sc)
	}
	un := NewSpanContext(false)
	parsed, err = ParseTraceparent(un.Traceparent())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Sampled {
		t.Fatal("unsampled flag lost in round trip")
	}
}

func TestParseTraceparentRejectsJunk(t *testing.T) {
	for _, bad := range []string{
		"",
		"00",
		"00-zz-11-01",
		"00-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331",    // missing flags
		"00-00000000000000000000000000000000-b7ad6b7169203331-01", // zero trace id
		"00-0af7651916cd43dd8448eb211c80319c-0000000000000000-01", // zero span id
		"ff-0af7651916cd43dd8448eb211c80319c-b7ad6b7169203331-01", // bad version
	} {
		if _, err := ParseTraceparent(bad); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted", bad)
		}
	}
}

func TestStartRootSampling(t *testing.T) {
	st := NewTraceStore(16)
	always := NewSpanTracer("svc", st, 1)
	never := NewSpanTracer("svc", st, 0)

	if sp := never.StartRoot("r", SpanContext{}); sp != nil {
		t.Fatal("rate 0 minted a root span")
	}
	sp := always.StartRoot("r", SpanContext{})
	if sp == nil {
		t.Fatal("rate 1 did not mint a root span")
	}
	if sp.Context().TraceID.IsZero() || !sp.Context().Sampled {
		t.Fatalf("fresh root context = %+v", sp.Context())
	}

	// An upstream context overrides head sampling in both directions.
	up := NewSpanContext(true)
	child := never.StartRoot("r", up)
	if child == nil {
		t.Fatal("sampled upstream context ignored by rate-0 tracer")
	}
	if child.Context().TraceID != up.TraceID {
		t.Fatal("trace id not inherited from upstream context")
	}
	child.End()
	tr := st.Trace(up.TraceID)
	if tr == nil {
		t.Fatal("continued trace not stored")
	}
	if tr.Root.Parent != up.SpanID {
		t.Fatal("root span does not parent to the upstream span")
	}
	if sp := always.StartRoot("r", NewSpanContext(false)); sp != nil {
		t.Fatal("unsampled upstream context sampled anyway")
	}
}

func TestNilSpanAndTracerAreSafe(t *testing.T) {
	var tr *SpanTracer
	var sp *Span
	var b *SpanBridge
	sp.SetAttr("k", "v")
	sp.SetError("boom")
	sp.End()
	if !sp.Context().IsZero() {
		t.Fatal("nil span has a context")
	}
	if got := tr.StartRoot("r", NewSpanContext(true)); got != nil {
		t.Fatal("nil tracer minted a span")
	}
	if got := tr.StartChild(nil, "c"); got != nil {
		t.Fatal("nil tracer minted a child")
	}
	tr.RecordChild(nil, "c", time.Now(), time.Millisecond, nil, "")
	tr.Adopt([]SpanData{{}})
	if tr.Service() != "" || tr.Store() != nil {
		t.Fatal("nil tracer leaks service/store")
	}
	b.SetActive(nil)
	if b.Enabled() || b.Active() != nil || b.Tracer() != nil {
		t.Fatal("nil bridge not disabled")
	}
	b.Emit(Event{Kind: KindPhase})
	var st *TraceStore
	st.AddComplete(SpanData{})
	if st.Len() != 0 || st.Trace(TraceID{}) != nil || st.Traces() != nil {
		t.Fatal("nil store not empty")
	}
}

func TestSpanTreeAssembly(t *testing.T) {
	st := NewTraceStore(16)
	tracer := NewSpanTracer("svc", st, 1)
	root := tracer.StartRoot("req", SpanContext{})
	root.SetAttr("client", "test")
	child := tracer.StartChild(root, "decide")
	tracer.RecordChild(child, "phase.local", time.Now(), time.Millisecond, map[string]string{"constraint": "c1"}, "")
	child.End()
	if st.Len() != 0 {
		t.Fatal("trace completed before the root ended")
	}
	root.End()
	if st.Len() != 1 {
		t.Fatalf("stored traces = %d, want 1", st.Len())
	}
	tr := st.Trace(root.Context().TraceID)
	if tr == nil || len(tr.Spans) != 3 {
		t.Fatalf("trace = %+v", tr)
	}
	// Every non-root span's parent must be present: no orphans.
	ids := map[SpanID]bool{}
	for _, sp := range tr.Spans {
		ids[sp.SpanID] = true
	}
	for _, sp := range tr.Spans {
		if !sp.Parent.IsZero() && !ids[sp.Parent] {
			t.Errorf("span %s has absent parent %s", sp.Name, sp.Parent)
		}
	}
	if tr.Violation {
		t.Fatal("clean trace flagged violating")
	}
}

func TestViolationAndErrorRetention(t *testing.T) {
	st := NewTraceStore(4) // tiny ring so eviction happens fast
	tracer := NewSpanTracer("svc", st, 1)

	viol := tracer.StartRoot("req", SpanContext{})
	viol.SetAttr("applied", "false")
	viol.SetAttr("violation", "c1")
	viol.End()
	violID := viol.Context().TraceID

	errRoot := tracer.StartRoot("req", SpanContext{})
	errRoot.SetError("site down")
	errRoot.End()
	errID := errRoot.Context().TraceID

	for i := 0; i < 50; i++ {
		sp := tracer.StartRoot("req", SpanContext{})
		sp.SetAttr("applied", "true")
		sp.End()
	}
	for _, id := range []TraceID{violID, errID} {
		tr := st.Trace(id)
		if tr == nil {
			t.Fatalf("interesting trace %s evicted by plain traffic", id)
		}
		if !tr.Violation {
			t.Fatalf("trace %s not flagged violating", id)
		}
	}
	if got := st.Len(); got > 4+2+defaultKeepCap {
		t.Fatalf("store grew unboundedly: %d traces", got)
	}
}

func TestTailRetentionKeepsSlowTraces(t *testing.T) {
	st := NewTraceStore(8)
	// Feed 30 varied fast completions to arm the p90 estimate, then one
	// slow trace, then enough fast traffic to rotate the recent ring.
	fast := func(i int) {
		sd := SpanData{TraceID: NewSpanContext(true).TraceID, SpanID: NewSpanID(), Name: "req",
			Duration: time.Duration(i%10+1) * time.Millisecond}
		st.record(sd, true)
	}
	for i := 0; i < 30; i++ {
		fast(i)
	}
	slowID := NewSpanContext(true).TraceID
	st.record(SpanData{TraceID: slowID, SpanID: NewSpanID(), Name: "req", Duration: time.Second}, true)
	for i := 0; i < 30; i++ {
		fast(i)
	}
	if st.Trace(slowID) == nil {
		t.Fatal("slow-tail trace rotated out of the store")
	}
}

func TestSelfTimesTelescope(t *testing.T) {
	tid := NewSpanContext(true).TraceID
	root := SpanData{TraceID: tid, SpanID: NewSpanID(), Name: "root", Duration: 10 * time.Millisecond}
	c1 := SpanData{TraceID: tid, SpanID: NewSpanID(), Parent: root.SpanID, Name: "c1", Duration: 4 * time.Millisecond}
	c2 := SpanData{TraceID: tid, SpanID: NewSpanID(), Parent: root.SpanID, Name: "c2", Duration: 3 * time.Millisecond}
	g := SpanData{TraceID: tid, SpanID: NewSpanID(), Parent: c1.SpanID, Name: "g", Duration: 5 * time.Millisecond} // longer than its parent
	tr := &Trace{ID: tid, Root: root, Spans: []SpanData{root, c1, c2, g}}

	selves := SelfTimes(tr)
	if got := selves[root.SpanID]; got != 3*time.Millisecond {
		t.Errorf("root self = %v, want 3ms", got)
	}
	if got := selves[c1.SpanID]; got != 0 {
		t.Errorf("c1 self = %v, want 0 (clamped: child outlasts parent)", got)
	}
	if got := selves[c2.SpanID]; got != 3*time.Millisecond {
		t.Errorf("c2 self = %v, want 3ms", got)
	}
	if got := selves[g.SpanID]; got != 5*time.Millisecond {
		t.Errorf("g self = %v, want 5ms", got)
	}
}

func TestSummarize(t *testing.T) {
	st := NewTraceStore(64)
	for i := 0; i < 10; i++ {
		tid := NewSpanContext(true).TraceID
		rootID := NewSpanID()
		st.record(SpanData{TraceID: tid, SpanID: NewSpanID(), Parent: rootID, Name: "phase.local", Service: "svc", Duration: 2 * time.Millisecond}, false)
		st.record(SpanData{TraceID: tid, SpanID: rootID, Name: "req", Service: "svc", Duration: 5 * time.Millisecond}, true)
	}
	sum := st.Summarize()
	if sum.Traces != 10 {
		t.Fatalf("summary traces = %d", sum.Traces)
	}
	if sum.P50 != 5*time.Millisecond || sum.P99 != 5*time.Millisecond {
		t.Fatalf("p50=%v p99=%v, want 5ms", sum.P50, sum.P99)
	}
	rows := map[string]AttribRow{}
	for _, r := range sum.Overall {
		rows[r.Name] = r
	}
	// Per trace: root self 3ms, phase self 2ms → telescopes to 5ms.
	if rows["req"].Self != 30*time.Millisecond || rows["phase.local"].Self != 20*time.Millisecond {
		t.Fatalf("attribution rows = %+v", sum.Overall)
	}
	var totalSelf time.Duration
	for _, r := range sum.Overall {
		totalSelf += r.Self
	}
	if totalSelf != 50*time.Millisecond {
		t.Fatalf("self times sum to %v, want the summed end-to-end 50ms", totalSelf)
	}
}

// Spans that say why their time was spent — sched.wait carries a
// "reason" — get one row per reason, so the rollup names what stalled
// requests waited for.
func TestSummarizeSplitsOnReason(t *testing.T) {
	st := NewTraceStore(64)
	for i, reason := range []string{"whole read of emp", "whole read of emp", "read of dept[0]"} {
		tid := NewSpanContext(true).TraceID
		rootID := NewSpanID()
		st.record(SpanData{TraceID: tid, SpanID: NewSpanID(), Parent: rootID, Name: "sched.wait", Service: "svc",
			Duration: time.Duration(i+1) * time.Millisecond, Attrs: map[string]string{"reason": reason}}, false)
		st.record(SpanData{TraceID: tid, SpanID: rootID, Name: "req", Service: "svc", Duration: 5 * time.Millisecond}, true)
	}
	got := map[string]AttribRow{}
	for _, r := range st.Summarize().Overall {
		if r.Name == "sched.wait" {
			got[r.Reason] = r
		}
	}
	if len(got) != 2 || got["whole read of emp"].Count != 2 || got["whole read of emp"].Self != 3*time.Millisecond ||
		got["read of dept[0]"].Count != 1 || got["read of dept[0]"].Self != 3*time.Millisecond {
		t.Fatalf("sched.wait rows by reason = %+v", got)
	}
}

func TestBridgeEmitsChildSpans(t *testing.T) {
	st := NewTraceStore(16)
	tracer := NewSpanTracer("svc", st, 1)
	bridge := NewSpanBridge(tracer)
	if bridge.Enabled() {
		t.Fatal("bridge enabled with no active span")
	}
	root := tracer.StartRoot("req", SpanContext{})
	bridge.SetActive(root)
	if !bridge.Enabled() {
		t.Fatal("bridge disabled with an active span")
	}
	bridge.Emit(Event{Kind: KindUpdateBegin, Update: "+l(1,2)"})
	bridge.Emit(Event{Kind: KindPhase, Phase: "local", Constraint: "c1", Decided: true, Verdict: "safe", Duration: time.Millisecond, Cache: CacheMiss})
	bridge.Emit(Event{Kind: KindUpdateEnd, Applied: true, IndexProbes: 7})
	bridge.SetActive(nil)
	root.End()

	tr := st.Trace(root.Context().TraceID)
	if tr == nil || len(tr.Spans) != 2 {
		t.Fatalf("bridged trace = %+v", tr)
	}
	if tr.Root.Attrs["update"] != "+l(1,2)" || tr.Root.Attrs["applied"] != "true" || tr.Root.Attrs["index_probes"] != "7" {
		t.Fatalf("root attrs = %v", tr.Root.Attrs)
	}
	var phase SpanData
	for _, sp := range tr.Spans {
		if sp.Name == "phase.local" {
			phase = sp
		}
	}
	if phase.Attrs["constraint"] != "c1" || phase.Attrs["verdict"] != "safe" || phase.Attrs["cache"] != CacheMiss {
		t.Fatalf("phase attrs = %v", phase.Attrs)
	}

	bridge.Emit(Event{Kind: KindPhase, Phase: "late"}) // after clear: dropped, not panicking
	if st.Len() != 1 {
		t.Fatal("event emitted with no active span was recorded")
	}
}

func TestTraceStoreConcurrentRecord(t *testing.T) {
	st := NewTraceStore(32)
	tracer := NewSpanTracer("svc", st, 1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				root := tracer.StartRoot("req", SpanContext{})
				tracer.RecordChild(root, "phase", time.Now(), time.Microsecond, nil, "")
				root.End()
				st.Traces()
				st.Summarize()
			}
		}()
	}
	wg.Wait()
	if done, _ := st.Completed(); done != 8*200 {
		t.Fatalf("completed = %d, want 1600", done)
	}
}

func TestOTLPExportShape(t *testing.T) {
	st := NewTraceStore(16)
	tracer := NewSpanTracer("coord", st, 1)
	root := tracer.StartRoot("req", SpanContext{})
	tracer.Adopt([]SpanData{{
		TraceID: root.Context().TraceID, SpanID: NewSpanID(), Parent: root.Context().SpanID,
		Name: "site.scan", Service: "site-a", Start: time.Now(), Duration: time.Millisecond,
		Err: "boom",
	}})
	root.End()

	var buf bytes.Buffer
	if err := WriteOTLP(&buf, st.Traces()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		ResourceSpans []struct {
			Resource struct {
				Attributes []struct {
					Key   string `json:"key"`
					Value struct {
						StringValue string `json:"stringValue"`
					} `json:"value"`
				} `json:"attributes"`
			} `json:"resource"`
			ScopeSpans []struct {
				Spans []struct {
					TraceID string `json:"traceId"`
					SpanID  string `json:"spanId"`
					Name    string `json:"name"`
					Status  *struct {
						Code int `json:"code"`
					} `json:"status"`
				} `json:"spans"`
			} `json:"scopeSpans"`
		} `json:"resourceSpans"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("OTLP output is not JSON: %v\n%s", err, buf.String())
	}
	if len(doc.ResourceSpans) != 2 {
		t.Fatalf("resourceSpans = %d, want one per service", len(doc.ResourceSpans))
	}
	services := map[string]bool{}
	var sawError bool
	for _, rs := range doc.ResourceSpans {
		for _, attr := range rs.Resource.Attributes {
			if attr.Key == "service.name" {
				services[attr.Value.StringValue] = true
			}
		}
		for _, ss := range rs.ScopeSpans {
			for _, sp := range ss.Spans {
				if len(sp.TraceID) != 32 || len(sp.SpanID) != 16 {
					t.Errorf("span id lengths: trace %q span %q", sp.TraceID, sp.SpanID)
				}
				if sp.Status != nil && sp.Status.Code == 2 {
					sawError = true
				}
			}
		}
	}
	if !services["coord"] || !services["site-a"] {
		t.Fatalf("services exported = %v", services)
	}
	if !sawError {
		t.Fatal("failed span lost its error status")
	}
}

func TestWriteSpanTree(t *testing.T) {
	st := NewTraceStore(16)
	tracer := NewSpanTracer("svc", st, 1)
	root := tracer.StartRoot("req", SpanContext{})
	child := tracer.StartChild(root, "decide")
	tracer.RecordChild(child, "phase.local", time.Now(), time.Millisecond, map[string]string{"constraint": "c1"}, "")
	child.End()
	root.End()

	var buf bytes.Buffer
	WriteSpanTree(&buf, st.Trace(root.Context().TraceID))
	out := buf.String()
	for _, want := range []string{"trace " + root.Context().TraceID.String(), "req", "decide", "phase.local", "constraint=c1", "└─"} {
		if !strings.Contains(out, want) {
			t.Errorf("span tree missing %q:\n%s", want, out)
		}
	}
}

func TestTraceEndpoints(t *testing.T) {
	st := NewTraceStore(16)
	tracer := NewSpanTracer("svc", st, 1)
	root := tracer.StartRoot("req", SpanContext{})
	tracer.RecordChild(root, "phase.local", time.Now(), time.Millisecond, nil, "")
	root.SetAttr("applied", "false")
	root.SetAttr("violation", "c1")
	root.End()

	ready := true
	mux := NewServeMux(nil, "", nil, func() bool { return ready }, st)
	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	if rec := get("/readyz"); rec.Code != 200 || !strings.Contains(rec.Body.String(), `"ready":true`) {
		t.Errorf("/readyz ready: %d %s", rec.Code, rec.Body.String())
	}
	ready = false
	if rec := get("/readyz"); rec.Code != 503 || !strings.Contains(rec.Body.String(), `"ready":false`) {
		t.Errorf("/readyz not ready: %d %s", rec.Code, rec.Body.String())
	}

	rec := get("/debug/traces")
	var list struct {
		Traces []traceSummaryJSON `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("/debug/traces: %v", err)
	}
	if len(list.Traces) != 1 || list.Traces[0].Root != "req" || !list.Traces[0].Violation || list.Traces[0].Spans != 2 {
		t.Fatalf("/debug/traces = %+v", list.Traces)
	}

	rec = get("/debug/traces/" + list.Traces[0].ID)
	if rec.Code != 200 {
		t.Fatalf("/debug/traces/{id} status = %d", rec.Code)
	}
	var tree struct {
		ID    string     `json:"id"`
		Spans []spanJSON `json:"spans"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &tree); err != nil {
		t.Fatal(err)
	}
	if tree.ID != list.Traces[0].ID || len(tree.Spans) != 2 {
		t.Fatalf("span tree = %+v", tree)
	}

	if rec := get("/debug/traces/zznotahexid"); rec.Code != 400 {
		t.Errorf("bad id status = %d", rec.Code)
	}
	if rec := get("/debug/traces/00000000000000000000000000000001"); rec.Code != 404 {
		t.Errorf("absent id status = %d", rec.Code)
	}

	rec = get("/debug/traces/summary")
	var sum Summary
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Traces != 1 || len(sum.Overall) == 0 {
		t.Fatalf("summary = %+v", sum)
	}
}

// FuzzParseTraceparent: any header value is parsed without a panic, and
// every context accepted renders to a traceparent that parses back to it.
func FuzzParseTraceparent(f *testing.F) {
	for _, seed := range []string{
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"cc-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-09-extra",
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
		" 00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01 ",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, err := ParseTraceparent(s)
		if err != nil {
			return
		}
		back, err := ParseTraceparent(sc.Traceparent())
		if err != nil || back != sc {
			t.Fatalf("%q parsed to %+v, rendered %q, parsed back to %+v (%v)", s, sc, sc.Traceparent(), back, err)
		}
	})
}
