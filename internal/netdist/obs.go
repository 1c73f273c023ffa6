package netdist

import (
	"encoding/json"
	"time"

	"repro/internal/obs"
)

// This file holds the wire-level instrumentation for both ends of the
// protocol. Metrics are strictly optional: with no registry attached the
// hot paths skip every clock read and size computation. Metric names are
// documented in DESIGN.md ("Observability").

// frameBytes returns the on-wire size of one frame carrying v: the JSON
// body plus the 4-byte length prefix. Only called when metrics are
// enabled; an unencodable value counts as header-only (the frame codec
// would have failed the request anyway).
func frameBytes(v any) int {
	body, err := json.Marshal(v)
	if err != nil {
		return 4
	}
	return 4 + len(body)
}

// coordMetrics holds the coordinator-side registry handles.
type coordMetrics struct {
	rpcSeconds  *obs.HistogramVec // op
	rpcTotal    *obs.CounterVec   // site, op
	rpcErrors   *obs.CounterVec   // site
	retries     *obs.CounterVec   // site
	unavailable *obs.Counter
	wireTuples  *obs.Counter
	bytesOut    *obs.Counter
	bytesIn     *obs.Counter
}

func newCoordMetrics(reg *obs.Registry) *coordMetrics {
	return &coordMetrics{
		rpcSeconds:  reg.HistogramVec("cc_coord_rpc_seconds", "round-trip latency per operation", nil, "op"),
		rpcTotal:    reg.CounterVec("cc_coord_rpc_total", "completed round trips (response received)", "site", "op"),
		rpcErrors:   reg.CounterVec("cc_coord_rpc_errors_total", "transport-failed attempts", "site"),
		retries:     reg.CounterVec("cc_coord_retries_total", "re-attempts after a transport failure", "site"),
		unavailable: reg.Counter("cc_coord_unavailable_total", "updates refused because a needed site was unreachable"),
		wireTuples:  reg.Counter("cc_coord_wire_tuples_total", "tuples shipped back over the wire"),
		bytesOut:    reg.Counter("cc_coord_bytes_sent_total", "request frame bytes written"),
		bytesIn:     reg.Counter("cc_coord_bytes_recv_total", "response frame bytes read"),
	}
}

// observeAttempt accounts one transport attempt: latency and frame sizes
// always, the outcome counter by whether a response arrived.
func (m *coordMetrics) observeAttempt(site, op string, req *Request, resp *Response, err error, elapsed time.Duration) {
	if m == nil {
		return
	}
	m.rpcSeconds.With(op).Observe(elapsed.Seconds())
	m.bytesOut.Add(int64(frameBytes(req)))
	if err != nil {
		m.rpcErrors.With(site).Inc()
		return
	}
	m.rpcTotal.With(site, op).Inc()
	m.bytesIn.Add(int64(frameBytes(resp)))
	m.wireTuples.Add(int64(len(resp.Tuples)))
}

// shardMetrics holds the sharding registry handles. Only attached when
// the placement actually shards something, so whole-relation deployments
// expose exactly the pre-placement metric set.
type shardMetrics struct {
	routed  *obs.Counter
	scatter *obs.Counter
}

func newShardMetrics(reg *obs.Registry) *shardMetrics {
	return &shardMetrics{
		routed:  reg.Counter("cc_shard_routed_total", "reads of one key group answered by the single owning shard"),
		scatter: reg.Counter("cc_shard_scatter_total", "reads scatter-gathered across every shard"),
	}
}

// serverMetrics holds the site-side registry handles. They are bumped in
// Server.Handle from the same values as ServerStats, so the /metrics
// exposition always sums to the shutdown accounting report.
type serverMetrics struct {
	requests   *obs.CounterVec   // op
	seconds    *obs.HistogramVec // op
	tuplesSent *obs.CounterVec   // relation
	errors     *obs.Counter
	bytesIn    *obs.Counter
	bytesOut   *obs.Counter
}

// Instrument attaches a metrics registry to the server. Call before
// serving; the handles are written concurrently by connection goroutines
// (the registry primitives are internally synchronized) but the pointer
// itself is set once.
func (s *Server) Instrument(reg *obs.Registry) {
	s.met = &serverMetrics{
		requests:   reg.CounterVec("cc_site_requests_total", "frames handled per request type", "op"),
		seconds:    reg.HistogramVec("cc_site_request_seconds", "handling latency per request type", nil, "op"),
		tuplesSent: reg.CounterVec("cc_site_tuples_sent_total", "tuples shipped per relation (scan + fetch)", "relation"),
		errors:     reg.Counter("cc_site_errors_total", "requests answered with ok=false"),
		bytesIn:    reg.Counter("cc_site_bytes_recv_total", "request frame bytes read"),
		bytesOut:   reg.Counter("cc_site_bytes_sent_total", "response frame bytes written"),
	}
}

// observe accounts one handled request, of type typ (requestType),
// against the attached registry.
func (m *serverMetrics) observe(typ string, req *Request, resp *Response, elapsed time.Duration) {
	if m == nil {
		return
	}
	m.requests.With(typ).Inc()
	m.seconds.With(typ).Observe(elapsed.Seconds())
	if !resp.OK {
		m.errors.Inc()
	}
	if len(resp.Tuples) > 0 && req.Relation != "" {
		m.tuplesSent.With(req.Relation).Add(int64(len(resp.Tuples)))
	}
	m.bytesIn.Add(int64(frameBytes(req)))
	m.bytesOut.Add(int64(frameBytes(resp)))
}
