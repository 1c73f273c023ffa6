package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netdist"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/store"
)

// newTracedServer builds a D1 server whose checker routes phase events
// through a span bridge. rate is the head-sampling probability for
// requests without an upstream trace context.
func newTracedServer(t *testing.T, rate float64) (*Server, *obs.SpanTracer, *bytes.Buffer) {
	t.Helper()
	db := store.New()
	if _, err := db.Insert("l", relation.Ints(0, 10)); err != nil {
		t.Fatal(err)
	}
	spans := obs.NewSpanTracer("serve-test", obs.NewTraceStore(64), rate)
	bridge := obs.NewSpanBridge(spans)
	chk := core.New(db, core.Options{LocalRelations: []string{"l"}, Tracer: bridge})
	if err := chk.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
		t.Fatal(err)
	}
	var dlog bytes.Buffer
	s := New(chk, Config{Spans: spans, SpanBridge: bridge, DecisionLog: &dlog})
	return s, spans, &dlog
}

func TestHTTPTraceparentEchoAndSpanTree(t *testing.T) {
	s, spans, _ := newTracedServer(t, 0) // rate 0: only upstream-sampled requests trace
	defer s.Close()
	ts := httptest.NewServer(s.Handler("", nil, nil))
	defer ts.Close()

	sc := obs.NewSpanContext(true)
	resp, _ := postJSON(t, ts, "/v1/apply", `{"update":{"op":"insert","relation":"r","tuple":[5]}}`,
		map[string]string{TraceparentHeader: sc.Traceparent()})
	if got := resp.Header.Get(RequestIDHeader); got != sc.TraceID.String() {
		t.Fatalf("X-Request-ID = %q, want the sent trace id %q", got, sc.TraceID)
	}

	tr := spans.Store().Trace(sc.TraceID)
	if tr == nil {
		t.Fatal("request trace not stored")
	}
	if tr.Root.Name != "serve.apply" || tr.Root.Parent != sc.SpanID {
		t.Fatalf("root = %+v, want serve.apply parented to the client span", tr.Root)
	}
	if !tr.Violation {
		t.Fatal("rejected apply not flagged violating")
	}
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"serve.apply", "queue.wait", "decide", "phase.residual"} {
		if !names[want] {
			t.Fatalf("span %q missing; trace has %v", want, names)
		}
	}
	if tr.Root.Attrs["client"] != ClientAnonymous || tr.Root.Attrs["verdict"] != VerdictViolation {
		t.Fatalf("root attrs = %v", tr.Root.Attrs)
	}

	// Rate 0 + no upstream context: untraced, no request id to echo.
	resp, _ = postJSON(t, ts, "/v1/check", `{"update":{"op":"insert","relation":"r","tuple":[100]}}`, nil)
	if got := resp.Header.Get(RequestIDHeader); got != "" {
		t.Fatalf("unsampled response carries X-Request-ID %q", got)
	}

	// An unsampled upstream context is echoed (log correlation) but not
	// stored.
	un := obs.NewSpanContext(false)
	resp, _ = postJSON(t, ts, "/v1/check", `{"update":{"op":"insert","relation":"r","tuple":[100]}}`,
		map[string]string{TraceparentHeader: un.Traceparent()})
	if got := resp.Header.Get(RequestIDHeader); got != un.TraceID.String() {
		t.Fatalf("unsampled echo = %q, want %q", got, un.TraceID)
	}
	if spans.Store().Trace(un.TraceID) != nil {
		t.Fatal("unsampled request was stored")
	}
}

// TestDecisionLogCarriesTraceAndClient is the ISSUE 8 satellite: every
// decision-log line parses as JSON and carries the request's trace id
// and client id.
func TestDecisionLogCarriesTraceAndClient(t *testing.T) {
	s, _, dlog := newTracedServer(t, 0)
	ts := httptest.NewServer(s.Handler("", nil, nil))

	sc := obs.NewSpanContext(true)
	postJSON(t, ts, "/v1/apply", `{"update":{"op":"insert","relation":"r","tuple":[100]}}`,
		map[string]string{TraceparentHeader: sc.Traceparent(), ClientHeader: "alice"})
	postJSON(t, ts, "/v1/batch", `{"updates":[{"op":"insert","relation":"r","tuple":[101]},{"op":"insert","relation":"r","tuple":[102]}]}`,
		map[string]string{TraceparentHeader: sc.Traceparent(), ClientHeader: "alice"})
	postJSON(t, ts, "/v1/check", `{"update":{"op":"insert","relation":"r","tuple":[103]}}`,
		map[string]string{ClientHeader: "bob"})

	ts.Close()
	s.Close() // drains the decision-log worker

	var lines []logRecord
	scan := bufio.NewScanner(dlog)
	for scan.Scan() {
		var rec logRecord
		if err := json.Unmarshal(scan.Bytes(), &rec); err != nil {
			t.Fatalf("decision-log line does not parse: %v: %s", err, scan.Text())
		}
		lines = append(lines, rec)
	}
	if len(lines) != 4 { // apply + 2 batch updates + check
		t.Fatalf("decision log has %d lines, want 4", len(lines))
	}
	for i, rec := range lines[:3] {
		if rec.Client != "alice" || rec.TraceID != sc.TraceID.String() {
			t.Errorf("line %d: client=%q trace_id=%q, want alice/%s", i, rec.Client, rec.TraceID, sc.TraceID)
		}
	}
	if rec := lines[3]; rec.Client != "bob" || rec.TraceID != "" {
		t.Errorf("untraced line: client=%q trace_id=%q, want bob with no trace id", rec.Client, rec.TraceID)
	}
}

// TestCrossProcessTraceReassembly is the ISSUE 8 acceptance test: one
// HTTP request into a serve.Server backed by a two-site netdist
// coordinator must come out the other end as a single stored trace —
// every span sharing one trace id, forming one rooted tree with no
// orphaned parents, spanning all three services, with per-span self
// times summing to the end-to-end latency within 5%.
func TestCrossProcessTraceReassembly(t *testing.T) {
	// Sites: r1 on siteA, r2 on siteB, l local to the coordinator.
	siteA, siteB := store.New(), store.New()
	for i := int64(0); i < 20; i++ {
		if _, err := siteA.Insert("r1", relation.Ints(10000+i)); err != nil {
			t.Fatal(err)
		}
		if _, err := siteB.Insert("r2", relation.Ints(20000+i)); err != nil {
			t.Fatal(err)
		}
	}
	lb := netdist.NewLoopback()
	srvA, srvB := netdist.NewServer(siteA, []string{"r1"}), netdist.NewServer(siteB, []string{"r2"})
	srvA.InstrumentSpans(obs.NewSpanTracer("site-a", obs.NewTraceStore(16), 1))
	srvB.InstrumentSpans(obs.NewSpanTracer("site-b", obs.NewTraceStore(16), 1))
	lb.AddSite("siteA", srvA)
	lb.AddSite("siteB", srvB)

	local := store.New()
	if _, err := local.Insert("l", relation.Ints(0, 10)); err != nil {
		t.Fatal(err)
	}
	spans := obs.NewSpanTracer("coord", obs.NewTraceStore(64), 0)
	bridge := obs.NewSpanBridge(spans)
	co, err := netdist.New(local,
		[]netdist.SiteSpec{{Site: "siteA", Relations: []string{"r1"}}, {Site: "siteB", Relations: []string{"r2"}}},
		lb, netdist.Options{
			Checker: core.Options{LocalRelations: []string{"l"}, Tracer: bridge},
			Timeout: time.Second,
			Spans:   bridge,
		})
	if err != nil {
		t.Fatal(err)
	}
	// Two constraints so the global phase consults both sites.
	if err := co.Checker.AddConstraintSource("c1", "panic :- l(X,Y) & r1(Z) & X <= Z & Z <= Y."); err != nil {
		t.Fatal(err)
	}
	if err := co.Checker.AddConstraintSource("c2", "panic :- l(X,Y) & r2(Z) & X <= Z & Z <= Y."); err != nil {
		t.Fatal(err)
	}

	s := New(&netdist.ServeBackend{Co: co}, Config{Spans: spans, SpanBridge: bridge})
	defer s.Close()
	ts := httptest.NewServer(s.Handler("", nil, nil))
	defer ts.Close()

	sc := obs.NewSpanContext(true)
	resp, body := postJSON(t, ts, "/v1/apply", `{"update":{"op":"insert","relation":"l","tuple":[50,60]}}`,
		map[string]string{TraceparentHeader: sc.Traceparent()})
	if resp.StatusCode != 200 {
		t.Fatalf("apply status = %d: %s", resp.StatusCode, body)
	}

	tr := spans.Store().Trace(sc.TraceID)
	if tr == nil {
		t.Fatal("no stored trace for the request")
	}

	// One trace id across every span; all three services present.
	services := map[string]bool{}
	ids := map[obs.SpanID]bool{}
	for _, sp := range tr.Spans {
		if sp.TraceID != sc.TraceID {
			t.Fatalf("span %s carries trace id %s, want %s", sp.Name, sp.TraceID, sc.TraceID)
		}
		services[sp.Service] = true
		ids[sp.SpanID] = true
	}
	for _, want := range []string{"coord", "site-a", "site-b"} {
		if !services[want] {
			t.Fatalf("service %s missing from trace; have %v (spans %d)", want, services, len(tr.Spans))
		}
	}

	// Single rooted tree: exactly one span without an in-trace parent
	// (the serve root, whose parent is the client's remote span), and
	// every other span's parent present.
	var roots, rpcs, siteSpans int
	for _, sp := range tr.Spans {
		switch {
		case sp.SpanID == tr.Root.SpanID:
			roots++
			if sp.Parent != sc.SpanID {
				t.Fatalf("root parent = %s, want the client span %s", sp.Parent, sc.SpanID)
			}
		case !ids[sp.Parent]:
			t.Fatalf("orphan span %s (%s): parent %s not in trace", sp.Name, sp.Service, sp.Parent)
		}
		if strings.HasPrefix(sp.Name, "rpc.") {
			rpcs++
		}
		if strings.HasPrefix(sp.Name, "site.") {
			siteSpans++
		}
	}
	if roots != 1 {
		t.Fatalf("roots = %d, want exactly 1", roots)
	}
	if rpcs == 0 || siteSpans == 0 || rpcs != siteSpans {
		t.Fatalf("rpc spans = %d, site spans = %d, want equal and nonzero", rpcs, siteSpans)
	}

	// Latency attribution: self times telescope to the root duration.
	var selfSum time.Duration
	for _, self := range obs.SelfTimes(tr) {
		selfSum += self
	}
	if e2e := tr.Root.Duration; math.Abs(float64(selfSum-e2e)) > 0.05*float64(e2e) {
		t.Fatalf("self times sum to %v, end-to-end %v (>5%% apart)", selfSum, e2e)
	}
}

// TestDecisionLogNamesWitness: a decision a local certificate settled is
// logged with the tuple that certified it, per constraint; one that ran
// the residual's plan carries none.
func TestDecisionLogNamesWitness(t *testing.T) {
	db := store.New()
	for _, f := range []struct {
		rel string
		tup relation.Tuple
	}{{"dept", relation.Strs("toy")}, {"dept", relation.Strs("shoe")}, {"emp", relation.Strs("ann", "toy")}} {
		if _, err := db.Insert(f.rel, f.tup); err != nil {
			t.Fatal(err)
		}
	}
	chk := core.New(db, core.Options{LocalRelations: []string{"emp"}})
	if err := chk.AddConstraintSource("ri", "panic :- emp(E,D) & not dept(D)."); err != nil {
		t.Fatal(err)
	}
	var dlog bytes.Buffer
	s := New(chk, Config{DecisionLog: &dlog})
	for _, dept := range []string{"toy", "shoe"} {
		if rep, err := s.Apply("alice", store.Ins("emp", relation.Strs("bob", dept))); err != nil || !rep.Applied {
			t.Fatalf("rep=%+v err=%v", rep, err)
		}
	}
	s.Close()
	var lines []logRecord
	for scan := bufio.NewScanner(&dlog); scan.Scan(); {
		var rec logRecord
		if err := json.Unmarshal(scan.Bytes(), &rec); err != nil {
			t.Fatalf("decision-log line does not parse: %v: %s", err, scan.Text())
		}
		lines = append(lines, rec)
	}
	if len(lines) != 2 || lines[0].Witnesses["ri"] != "emp(ann,toy)" || len(lines[1].Witnesses) != 0 {
		t.Fatalf("decision log = %+v, want emp(ann,toy) as ri's witness on the first line only", lines)
	}
}
