// Package sdk is the embeddable client of the decision service: one
// interface — Check, Apply, Batch, Stats — backed by either arm.
//
//   - In-process: the SDK drives a serve.Server directly (its own,
//     built over a core.Checker you hand it, or one you share with an
//     HTTP listener). Decisions never cross a socket but still pass
//     through the same admission, apply turn and decision log as
//     service traffic.
//   - HTTP: the SDK speaks the /v1/* wire protocol to a remote ccserved.
//
// Both arms return serve.Decision values produced by the same
// conversion from checker reports, so a caller can switch deployment
// shapes (library today, service tomorrow) without changing a line.
package sdk

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// Config selects and tunes an arm. Exactly one of URL, Server and
// Checker must be set.
type Config struct {
	// URL selects the HTTP arm: the base address of a ccserved instance,
	// e.g. "http://127.0.0.1:8080".
	URL string
	// HTTPClient overrides the default client of the HTTP arm (pool
	// sizing matters under high stream counts; see cmd/ccload).
	HTTPClient *http.Client

	// Server selects the in-process arm against an existing server. The
	// caller keeps ownership; Close will not drain it.
	Server *serve.Server
	// Checker selects the in-process arm with a private server the SDK
	// owns (built with ServeConfig and drained by Close).
	Checker     *core.Checker
	ServeConfig serve.Config

	// ClientID keys admission control: sent as X-Client-ID over HTTP,
	// passed to the server directly in-process. Empty means
	// serve.ClientAnonymous.
	ClientID string

	// Trace, when non-nil, is consulted per HTTP request for the outgoing
	// trace context: a non-zero context is sent as the traceparent header
	// (obs.NewSpanContext mints fresh ones; the zero context sends
	// nothing). The SDK counts responses whose X-Request-ID echoes the
	// sent trace id (traced) against the rest (untraced) — see
	// TraceCounts. The in-process arm ignores it.
	Trace func() obs.SpanContext
}

// SDK is a handle on one arm. Safe for concurrent use.
type SDK struct {
	client string

	url   string
	hc    *http.Client
	trace func() obs.SpanContext

	traced   atomic.Int64
	untraced atomic.Int64

	srv   *serve.Server
	owned bool
}

// TraceCounts reports, for the HTTP arm, how many responses carried an
// X-Request-ID matching the trace id the SDK sent (traced) versus the
// rest (no traceparent sent, or no matching echo) — the propagation
// health of a load run.
func (s *SDK) TraceCounts() (traced, untraced int64) {
	return s.traced.Load(), s.untraced.Load()
}

// New builds an SDK from the config.
func New(cfg Config) (*SDK, error) {
	set := 0
	for _, on := range []bool{cfg.URL != "", cfg.Server != nil, cfg.Checker != nil} {
		if on {
			set++
		}
	}
	if set != 1 {
		return nil, errors.New("sdk: exactly one of URL, Server and Checker must be set")
	}
	s := &SDK{client: cfg.ClientID}
	if s.client == "" {
		s.client = serve.ClientAnonymous
	}
	switch {
	case cfg.URL != "":
		s.url = cfg.URL
		s.hc = cfg.HTTPClient
		s.trace = cfg.Trace
		if s.hc == nil {
			s.hc = &http.Client{Timeout: 30 * time.Second}
		}
	case cfg.Server != nil:
		s.srv = cfg.Server
	default:
		s.srv = serve.New(cfg.Checker, cfg.ServeConfig)
		s.owned = true
	}
	return s, nil
}

// Close drains the SDK-owned in-process server; it leaves shared
// servers and HTTP remotes alone.
func (s *SDK) Close() {
	if s.owned {
		s.srv.Close()
	}
}

// Check decides the update without applying it.
func (s *SDK) Check(u store.Update) (serve.Decision, error) {
	if s.srv != nil {
		rep, err := s.srv.Check(s.client, u)
		if err != nil {
			return serve.Decision{}, err
		}
		return serve.DecisionFrom(rep, false), nil
	}
	var d serve.Decision
	err := s.post("/v1/check", serve.CheckRequest{Update: serve.FromUpdate(u)}, &d)
	return d, err
}

// Apply decides the update and, when admitted, applies it.
func (s *SDK) Apply(u store.Update) (serve.Decision, error) {
	if s.srv != nil {
		rep, err := s.srv.Apply(s.client, u)
		if err != nil {
			return serve.Decision{}, err
		}
		return serve.DecisionFrom(rep, true), nil
	}
	var d serve.Decision
	err := s.post("/v1/apply", serve.CheckRequest{Update: serve.FromUpdate(u)}, &d)
	return d, err
}

// Batch runs the updates in one request; atomic makes it
// all-or-nothing.
func (s *SDK) Batch(us []store.Update, atomic bool) (serve.BatchResult, error) {
	if s.srv != nil {
		out, err := s.srv.Batch(s.client, us, atomic)
		if err != nil {
			return serve.BatchResult{}, err
		}
		return serve.BatchResultFrom(out), nil
	}
	req := serve.BatchRequest{Atomic: atomic, Updates: make([]serve.WireUpdate, len(us))}
	for i, u := range us {
		req.Updates[i] = serve.FromUpdate(u)
	}
	var res serve.BatchResult
	err := s.post("/v1/batch", req, &res)
	return res, err
}

// Stats fetches the merged checker + server statistics.
func (s *SDK) Stats() (serve.StatsPayload, error) {
	if s.srv != nil {
		cs, err := s.srv.CheckerStats()
		if err != nil {
			return serve.StatsPayload{}, err
		}
		return serve.StatsPayloadFrom(cs, s.srv.Stats()), nil
	}
	httpReq, err := http.NewRequest(http.MethodGet, s.url+"/v1/stats", nil)
	if err != nil {
		return serve.StatsPayload{}, err
	}
	var p serve.StatsPayload
	err = s.roundTrip(httpReq, &p)
	return p, err
}

// HTTPError is a non-2xx response from the HTTP arm. 429s carry the
// server's Retry-After advice.
type HTTPError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("sdk: %s (HTTP %d)", e.Msg, e.Status)
}

// IsBusy reports whether the error is a load-shedding rejection — a
// serve.BusyError from the in-process arm or a 429 from the HTTP arm —
// and the advised retry delay.
func IsBusy(err error) (time.Duration, bool) {
	var busy *serve.BusyError
	if errors.As(err, &busy) {
		return busy.RetryAfter, true
	}
	var he *HTTPError
	if errors.As(err, &he) && he.Status == http.StatusTooManyRequests {
		return he.RetryAfter, true
	}
	return 0, false
}

func (s *SDK) post(path string, body, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, s.url+path, bytes.NewReader(buf))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return s.roundTrip(req, out)
}

func (s *SDK) roundTrip(req *http.Request, out any) error {
	if s.client != "" {
		req.Header.Set(serve.ClientHeader, s.client)
	}
	var sentTrace string
	if s.trace != nil {
		if sc := s.trace(); !sc.IsZero() {
			req.Header.Set(serve.TraceparentHeader, sc.Traceparent())
			sentTrace = sc.TraceID.String()
		}
	}
	resp, err := s.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if s.trace != nil {
		if sentTrace != "" && resp.Header.Get(serve.RequestIDHeader) == sentTrace {
			s.traced.Add(1)
		} else {
			s.untraced.Add(1)
		}
	}
	if resp.StatusCode != http.StatusOK {
		he := &HTTPError{Status: resp.StatusCode}
		var eb serve.ErrorBody
		if b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<10)); err == nil {
			if json.Unmarshal(b, &eb) == nil && eb.Error != "" {
				he.Msg = eb.Error
			} else {
				he.Msg = string(bytes.TrimSpace(b))
			}
		}
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
			he.RetryAfter = time.Duration(secs) * time.Second
		}
		return he
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	return dec.Decode(out)
}
