package netdist

import (
	"time"

	"repro/internal/obs"
)

// This file holds the wire-level instrumentation for both ends of the
// protocol. Metrics are strictly optional: with no registry attached the
// hot paths skip every clock read and size computation. Metric names are
// documented in DESIGN.md ("Observability").

// frameBytes returns the on-wire size of one frame carrying v: the body
// plus the 4-byte length prefix, encoded by the frame codec into a pooled
// buffer. Only called when metrics are enabled.
func frameBytes(v any) int {
	bp := getFrameBuf()
	defer putFrameBuf(bp)
	body, _ := appendBody((*bp)[:0], v) // v is a *Request or *Response: no error
	*bp = body
	return 4 + len(body)
}

// coordMetrics holds the coordinator's live instruments: what happened
// to each transport attempt, which no Stats keeps.
type coordMetrics struct {
	rpcSeconds *obs.HistogramVec // op
	rpcTotal   *obs.CounterVec   // site, op
	rpcErrors  *obs.CounterVec   // site
	bytesOut   *obs.Counter
	bytesIn    *obs.Counter
}

func newCoordMetrics(reg *obs.Registry) *coordMetrics {
	return &coordMetrics{
		rpcSeconds: reg.HistogramVec("cc_coord_rpc_seconds", "round-trip latency per operation", nil, "op"),
		rpcTotal:   reg.CounterVec("cc_coord_rpc_total", "completed round trips (response received)", "site", "op"),
		rpcErrors:  reg.CounterVec("cc_coord_rpc_errors_total", "transport-failed attempts", "site"),
		bytesOut:   reg.Counter("cc_coord_bytes_sent_total", "request frame bytes written"),
		bytesIn:    reg.Counter("cc_coord_bytes_recv_total", "response frame bytes read"),
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
}

// instrument registers the coordinator's views of Stats on reg, read at
// scrape time. Like the live instruments they count every wire event,
// the initial sync's included: the tuples it shipped are SyncTuples, and
// its retries and shard reads are kept in co.sync. The cc_shard_* pair is
// registered only when the placement shards something, so whole-relation
// deployments expose exactly the pre-placement metric set.
func (co *Coordinator) instrument(reg *obs.Registry, sharded bool) {
	reg.CounterFunc("cc_coord_retries_total", "re-attempts after a transport failure", func(emit obs.Emit) {
		for _, bySite := range []map[string]int{co.sync.RetriesBySite, co.Stats().RetriesBySite} {
			for site, n := range bySite {
				if n > 0 {
					emit(int64(n), site)
				}
			}
		}
	}, "site")
	reg.CounterFunc("cc_coord_unavailable_total", "updates refused because a needed site was unreachable", func(emit obs.Emit) {
		emit(int64(co.Stats().Unavailable))
	})
	reg.CounterFunc("cc_coord_wire_tuples_total", "tuples shipped back over the wire", func(emit obs.Emit) {
		st := co.Stats()
		emit(st.SyncTuples + st.WireTuples)
	})
	if !sharded {
		return
	}
	reg.CounterFunc("cc_shard_routed_total", "reads of one key group answered by the single owning shard", func(emit obs.Emit) {
		emit(int64(co.sync.ShardRouted + co.Stats().ShardRouted))
	})
	reg.CounterFunc("cc_shard_scatter_total", "reads scatter-gathered across every shard", func(emit obs.Emit) {
		emit(int64(co.sync.ShardScatter + co.Stats().ShardScatter))
	})
}

// serverMetrics holds the site's live instruments: handling latency and
// frame sizes, which ServerStats does not keep.
type serverMetrics struct {
	seconds  *obs.HistogramVec // op
	bytesIn  *obs.Counter
	bytesOut *obs.Counter
}

// Instrument attaches a metrics registry to the server. Call before
// serving: the request, tuple and error counters are views of Stats, read
// at scrape time, and the latency and byte instruments are written
// concurrently by connection goroutines (the registry primitives are
// internally synchronized) but the pointer itself is set once.
func (s *Server) Instrument(reg *obs.Registry) {
	reg.CounterFunc("cc_site_requests_total", "frames handled per request type", func(emit obs.Emit) {
		emit.NonZero(s.Stats().Requests)
	}, "op")
	reg.CounterFunc("cc_site_tuples_sent_total", "tuples shipped per relation (scan + fetch)", func(emit obs.Emit) {
		emit.NonZero(s.Stats().TuplesSent)
	}, "relation")
	reg.CounterFunc("cc_site_errors_total", "requests answered with ok=false", func(emit obs.Emit) {
		emit(s.Stats().Errors)
	})
	s.met = &serverMetrics{
		seconds:  reg.HistogramVec("cc_site_request_seconds", "handling latency per request type", nil, "op"),
		bytesIn:  reg.Counter("cc_site_bytes_recv_total", "request frame bytes read"),
		bytesOut: reg.Counter("cc_site_bytes_sent_total", "response frame bytes written"),
	}
}

// observe accounts one handled request, of type typ (requestType),
// against the attached registry.
func (m *serverMetrics) observe(typ string, req *Request, resp *Response, elapsed time.Duration) {
	if m == nil {
		return
	}
	m.seconds.With(typ).Observe(elapsed.Seconds())
	m.bytesIn.Add(int64(frameBytes(req)))
	m.bytesOut.Add(int64(frameBytes(resp)))
}
