package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
)

func postJSON(t *testing.T, ts *httptest.Server, path, body string, headers map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestHTTPCheckApplyEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	chk := newTestChecker(t, reg)
	s := New(chk, Config{Metrics: reg})
	defer s.Close()
	ts := httptest.NewServer(s.Handler("test-ccserved", nil, nil))
	defer ts.Close()

	// A safe check decides ok but applies nothing.
	resp, body := postJSON(t, ts, "/v1/check", `{"update":{"op":"insert","relation":"r","tuple":[100]}}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("check status = %d: %s", resp.StatusCode, body)
	}
	var d Decision
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if !d.OK() || d.Applied {
		t.Fatalf("check decision = %+v, want ok/not-applied", d)
	}
	if len(d.Decisions) != 1 || d.Decisions[0].Constraint != "fi" {
		t.Fatalf("decisions = %+v", d.Decisions)
	}
	if chk.DB().Contains("r", relation.Ints(100)) {
		t.Fatal("/v1/check mutated the store")
	}

	// A violating check reports the constraint.
	_, body = postJSON(t, ts, "/v1/check", `{"update":{"op":"insert","relation":"r","tuple":[5]}}`, nil)
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if d.Verdict != VerdictViolation || len(d.Violations) != 1 || d.Violations[0] != "fi" {
		t.Fatalf("violating check decision = %+v", d)
	}

	// Apply admits and keeps the update.
	_, body = postJSON(t, ts, "/v1/apply", `{"update":{"op":"insert","relation":"r","tuple":[100]}}`, nil)
	if err := json.Unmarshal(body, &d); err != nil {
		t.Fatal(err)
	}
	if !d.OK() || !d.Applied {
		t.Fatalf("apply decision = %+v, want ok/applied", d)
	}
	if !chk.DB().Contains("r", relation.Ints(100)) {
		t.Fatal("/v1/apply did not apply")
	}

	// Malformed updates are 400s, not queue traffic.
	resp, _ = postJSON(t, ts, "/v1/apply", `{"update":{"op":"upsert","relation":"r","tuple":[1]}}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad op status = %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts, "/v1/apply", `{"update":`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("truncated body status = %d, want 400", resp.StatusCode)
	}
}

// A client may check an update into a relation the store has never seen.
// The answer is 200 with a verdict, and it is only an answer: no relation
// appears, the store does not move, and no decision compiles anything —
// /v1/check is not a lever on what the checker compiled.
func TestHTTPCheckOfUnknownRelationWritesNothing(t *testing.T) {
	reg := obs.NewRegistry()
	chk := newTestChecker(t, reg)
	s := New(chk, Config{Metrics: reg})
	defer s.Close()
	ts := httptest.NewServer(s.Handler("test-ccserved-ghost", nil, nil))
	defer ts.Close()
	compiled := func() string {
		t.Helper()
		r, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		expo, _ := io.ReadAll(r.Body)
		for _, line := range strings.Split(string(expo), "\n") {
			if strings.HasPrefix(line, "cc_residual_compiled ") {
				return line
			}
		}
		t.Fatalf("/metrics has no cc_residual_compiled:\n%s", expo)
		return ""
	}
	check := func(rel string, v int) {
		t.Helper()
		body := `{"update":{"op":"insert","relation":"` + rel + `","tuple":[` + strconv.Itoa(v) + `]}}`
		resp, out := postJSON(t, ts, "/v1/check", body, nil)
		var d Decision
		if err := json.Unmarshal(out, &d); err != nil || resp.StatusCode != http.StatusOK || !d.OK() || d.Applied {
			t.Fatalf("check of %s(%d): status %d, %s (%v); want 200 ok/not-applied", rel, v, resp.StatusCode, out, err)
		}
	}
	// r is named by the constraint and ghost by nothing; the store has
	// neither. One check of each warms its pattern.
	check("ghost", 1)
	check("r", 100)
	names, dump, before := chk.DB().Names(), chk.DB().Dump(), compiled()
	for v := 2; v < 6; v++ {
		check("ghost", v)
		check("r", 100+v)
	}
	if got := chk.DB().Names(); len(got) != len(names) || chk.DB().Dump() != dump {
		t.Fatalf("checks moved the store: relations %v (were %v)", got, names)
	}
	if after := compiled(); after != before {
		t.Fatalf("checks of unknown relations caused compilations: %q, was %q", after, before)
	}
	r, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var stats StatsPayload
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil || stats.Updates != 10 || stats.Rejected != 0 {
		t.Fatalf("stats payload = %+v (%v), want the 10 checks counted", stats, err)
	}
}

// A malformed update — a delete of the wrong arity, an insert of the wrong
// arity into a relation the store does not have yet — is answered, and
// only answered: the well-formed update of the same relation and direction
// after it is still decided on its own tuple. /v1/check is not a lever on
// the next client's verdict.
func TestHTTPWrongArityDoesNotPoison(t *testing.T) {
	db := store.New()
	for rel, tu := range map[string]relation.Tuple{"dept": relation.Ints(1), "emp": relation.Ints(7, 1), "p": relation.Ints(5)} {
		if _, err := db.Insert(rel, tu); err != nil {
			t.Fatal(err)
		}
	}
	chk := core.New(db, core.Options{})
	for name, src := range map[string]string{
		"ri":   "panic :- emp(E,D) & not dept(D).",
		"meet": "panic :- q(X) & p(X).",
	} {
		if err := chk.AddConstraintSource(name, src); err != nil {
			t.Fatal(err)
		}
	}
	s := New(chk, Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler("test-ccserved-arity", nil, nil))
	defer ts.Close()
	check := func(update string) Decision {
		t.Helper()
		resp, body := postJSON(t, ts, "/v1/check", `{"update":`+update+`}`, nil)
		var d Decision
		if err := json.Unmarshal(body, &d); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("check %s: status %d, %s (%v)", update, resp.StatusCode, body, err)
		}
		return d
	}
	for _, c := range []struct{ malformed, wellFormed, violates string }{
		{`{"op":"delete","relation":"dept","tuple":[1,2]}`, `{"op":"delete","relation":"dept","tuple":[1]}`, "ri"},
		{`{"op":"insert","relation":"q","tuple":[5,6]}`, `{"op":"insert","relation":"q","tuple":[5]}`, "meet"},
	} {
		if d := check(c.malformed); !d.OK() {
			t.Fatalf("%s: %+v, want ok (it matches no occurrence)", c.malformed, d)
		}
		if d := check(c.wellFormed); d.Verdict != VerdictViolation || len(d.Violations) != 1 || d.Violations[0] != c.violates {
			t.Errorf("%s after %s: %+v, want a violation of %s", c.wellFormed, c.malformed, d, c.violates)
		}
	}
}

// A range step compiled while its relation is absent meets that relation
// created, through /v1/apply, with another arity: the next /v1/check of the
// pattern answers, without a panic, what evaluation of the updated store
// says.
func TestHTTPRangeStepOtherArity(t *testing.T) {
	prog := parser.MustParseProgram("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.")
	for _, tc := range []struct {
		fact          string
		create, check store.Update
	}{
		// +l(1,5) ranges over r's column 0; +r(3) over l's columns 0 and 1.
		{"l(0,0).", store.Ins("r", relation.Ints(3, 4)), store.Ins("l", relation.Ints(1, 5))},
		{"r(100).", store.Ins("l", relation.Ints(3)), store.Ins("r", relation.Ints(3))},
	} {
		db := store.New()
		if err := db.LoadFacts(parser.MustParseProgram(tc.fact)); err != nil {
			t.Fatal(err)
		}
		chk := core.New(db, core.Options{})
		if err := chk.AddConstraint("fi", prog); err != nil {
			t.Fatal(err)
		}
		s := New(chk, Config{})
		t.Cleanup(s.Close)
		ts := httptest.NewServer(s.Handler("test-ccserved-range", nil, nil))
		t.Cleanup(ts.Close)
		call := func(path string, u store.Update) Decision {
			t.Helper()
			body, err := json.Marshal(FromUpdate(u))
			if err != nil {
				t.Fatal(err)
			}
			resp, out := postJSON(t, ts, path, `{"update":`+string(body)+`}`, nil)
			var d Decision
			if err := json.Unmarshal(out, &d); err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s %v: status %d, %s (%v)", path, u, resp.StatusCode, out, err)
			}
			return d
		}
		if d := call("/v1/check", tc.check); !d.OK() {
			t.Fatalf("%v before %v: %+v, want ok", tc.check, tc.create, d)
		}
		if d := call("/v1/apply", tc.create); !d.OK() || !d.Applied {
			t.Fatalf("%v: %+v, want applied", tc.create, d)
		}
		post := chk.DB().Clone()
		if err := tc.check.Apply(post); err != nil {
			t.Fatal(err)
		}
		violated, err := eval.PanicHolds(prog, post)
		if err != nil {
			t.Fatal(err)
		}
		if d := call("/v1/check", tc.check); d.OK() == violated {
			t.Errorf("%v after %v: %+v, evaluation says violated=%v", tc.check, tc.create, d, violated)
		}
	}
}

func TestHTTPBatchAndStats(t *testing.T) {
	reg := obs.NewRegistry()
	chk := newTestChecker(t, reg)
	s := New(chk, Config{Metrics: reg})
	defer s.Close()
	ts := httptest.NewServer(s.Handler("test-ccserved-batch", nil, nil))
	defer ts.Close()

	resp, body := postJSON(t, ts, "/v1/batch",
		`{"atomic":true,"updates":[
			{"op":"insert","relation":"r","tuple":[100]},
			{"op":"insert","relation":"r","tuple":[5]}]}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d: %s", resp.StatusCode, body)
	}
	var br BatchResult
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Applied != 0 || br.FailedAt != 1 || !br.Atomic {
		t.Fatalf("batch result = %+v, want atomic rollback at 1", br)
	}
	if chk.DB().Contains("r", relation.Ints(100)) {
		t.Fatal("atomic batch rollback left +r(100)")
	}

	resp, body = postJSON(t, ts, "/v1/batch", `{"updates":[{"op":"bad"}]}`, nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad batch member status = %d: %s", resp.StatusCode, body)
	}

	r, err := ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var stats StatsPayload
	if err := json.NewDecoder(r.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Updates == 0 || stats.Server.Requests[EndpointBatch] != 1 {
		t.Fatalf("stats payload = %+v", stats)
	}

	// The obs endpoints ride the same listener.
	mr, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(expo), "cc_serve_requests_total") {
		t.Fatalf("/metrics missing cc_serve_requests_total:\n%s", expo)
	}
	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(hr.Body)
	hr.Body.Close()
	if !strings.Contains(string(hb), `"status":"ok"`) {
		t.Fatalf("/healthz = %s", hb)
	}
}

func TestHTTPRateLimit429(t *testing.T) {
	chk := newTestChecker(t, nil)
	s := New(chk, Config{RatePerClient: 0.001, Burst: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler("", nil, nil))
	defer ts.Close()

	hdr := map[string]string{ClientHeader: "hot-client"}
	resp, _ := postJSON(t, ts, "/v1/check", `{"update":{"op":"insert","relation":"r","tuple":[100]}}`, hdr)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request status = %d", resp.StatusCode)
	}
	resp, body := postJSON(t, ts, "/v1/check", `{"update":{"op":"insert","relation":"r","tuple":[100]}}`, hdr)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request status = %d, want 429: %s", resp.StatusCode, body)
	}
	secs, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want >= 1 second", resp.Header.Get("Retry-After"))
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("429 body = %s", body)
	}
	// Another client is unaffected.
	resp, _ = postJSON(t, ts, "/v1/check", `{"update":{"op":"insert","relation":"r","tuple":[100]}}`,
		map[string]string{ClientHeader: "cold-client"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold client status = %d, want 200", resp.StatusCode)
	}
}

func TestHTTPDraining503(t *testing.T) {
	chk := newTestChecker(t, nil)
	s := New(chk, Config{})
	ts := httptest.NewServer(s.Handler("", nil, nil))
	defer ts.Close()

	// Before the drain the default readiness probe says yes.
	ready, err := http.Get(ts.URL + "/readyz")
	if err != nil || ready.StatusCode != http.StatusOK {
		t.Fatalf("/readyz before drain = %v %v, want 200", ready.StatusCode, err)
	}
	ready.Body.Close()

	s.Close()
	resp, _ := postJSON(t, ts, "/v1/apply", `{"update":{"op":"insert","relation":"r","tuple":[100]}}`, nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining status = %d, want 503", resp.StatusCode)
	}
	// /readyz flips with the drain so load balancers stop routing here,
	// while /healthz keeps answering 200 (the process is alive).
	ready, err = http.Get(ts.URL + "/readyz")
	if err != nil || ready.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz during drain = %v %v, want 503", ready.StatusCode, err)
	}
	ready.Body.Close()
	alive, err := http.Get(ts.URL + "/healthz")
	if err != nil || alive.StatusCode != http.StatusOK {
		t.Fatalf("/healthz during drain = %v %v, want 200", alive.StatusCode, err)
	}
	alive.Body.Close()
}

func TestWireValueCodec(t *testing.T) {
	cases := []struct {
		in   any
		want ast.Value
	}{
		{json.Number("42"), ast.Int(42)},
		{json.Number("2.5"), ast.Rat(5, 2)},
		{json.Number("-7"), ast.Int(-7)},
		{float64(3), ast.Int(3)},
		{"#3/2", ast.Rat(3, 2)},
		{"$shoe", ast.Str("shoe")},
		{"shoe", ast.Str("shoe")},
	}
	for _, c := range cases {
		got, err := DecodeWireValue(c.in)
		if err != nil {
			t.Fatalf("DecodeWireValue(%v): %v", c.in, err)
		}
		if !got.Equal(c.want) {
			t.Fatalf("DecodeWireValue(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if _, err := DecodeWireValue(true); err == nil {
		t.Fatal("DecodeWireValue(true) should fail")
	}
	if _, err := DecodeWireValue(json.Number("x")); err == nil {
		t.Fatal("DecodeWireValue(bad number) should fail")
	}

	// FromUpdate/ToUpdate round-trips exactly, non-integer rationals and
	// awkward symbols included.
	u := store.Ins("emp", relation.Tuple{ast.Str("jones"), ast.Rat(7, 3), ast.Int(50), ast.Str("#odd")})
	w := FromUpdate(u)
	// Push through JSON like a real request would.
	b, err := json.Marshal(CheckRequest{Update: w})
	if err != nil {
		t.Fatal(err)
	}
	var req CheckRequest
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.UseNumber()
	if err := dec.Decode(&req); err != nil {
		t.Fatal(err)
	}
	got, err := req.Update.ToUpdate()
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != u.String() || !got.Tuple.Equal(u.Tuple) {
		t.Fatalf("round trip %v -> %v", u, got)
	}
	if _, err := (WireUpdate{Op: "insert"}).ToUpdate(); err == nil {
		t.Fatal("missing relation should fail")
	}
}

// TestHTTPHugeNumberRefused: a number whose value needs more digits than
// ast.MaxNumberDigits is a 400, refused before big.Rat expands it and
// before the intern pool keeps it for the life of the process — as a JSON
// number and as "#…" text alike.
func TestHTTPHugeNumberRefused(t *testing.T) {
	s := New(newTestChecker(t, nil), Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler("", nil, nil))
	defer ts.Close()
	check := func(el string) (int, time.Duration) {
		start := time.Now()
		resp, _ := postJSON(t, ts, "/v1/check", `{"update":{"op":"+","relation":"r","tuple":[`+el+`]}}`, nil)
		return resp.StatusCode, time.Since(start)
	}
	if code, _ := check("100"); code != http.StatusOK {
		t.Fatalf("ordinary check status = %d", code)
	}
	for _, el := range []string{"1e999999", `"#1e999998"`, `"#` + strings.Repeat("9", 1001) + `"`} {
		interned := relation.InternSize()
		code, took := check(el)
		if code != http.StatusBadRequest {
			t.Errorf("%.20s: status = %d, want 400", el, code)
		}
		if took > 50*time.Millisecond {
			t.Errorf("%.20s: refused after %v, want within 50ms", el, took)
		}
		if got := relation.InternSize(); got != interned {
			t.Errorf("%.20s: intern pool grew %d -> %d", el, interned, got)
		}
	}
}

// FuzzDecodeWireValue: decoding any JSON number or string never panics,
// and every value it accepts survives encodeWireValue and back exactly.
func FuzzDecodeWireValue(f *testing.F) {
	for _, seed := range []string{"42", "-7", "2.5", "1e3", "1e999", "1e999999", "#3/2", "#-1/3", "#1e5", "#0x10", "$shoe", "shoe", "#", "1/0"} {
		f.Add(seed, true)
		f.Add(seed, false)
	}
	f.Fuzz(func(t *testing.T, text string, number bool) {
		var el any = text
		if number {
			el = json.Number(text)
		}
		v, err := DecodeWireValue(el)
		if err != nil {
			return
		}
		back, err := DecodeWireValue(encodeWireValue(v))
		if err != nil || !back.Equal(v) {
			t.Fatalf("%q decoded to %v, re-decoded to %v (%v)", text, v, back, err)
		}
	})
}

func TestRetryAfterSeconds(t *testing.T) {
	for _, c := range []struct {
		d    time.Duration
		want int
	}{
		{0, 1}, {10 * time.Millisecond, 1}, {time.Second, 1}, {1500 * time.Millisecond, 2}, {5 * time.Second, 5},
	} {
		if got := retryAfterSeconds(c.d); got != c.want {
			t.Fatalf("retryAfterSeconds(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}
