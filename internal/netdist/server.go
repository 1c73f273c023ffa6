package netdist

import (
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/store"
)

// ServerStats is per-request accounting on the site side, mirroring the
// store's read counters at request granularity: what the site was asked,
// and how many tuples it shipped, per relation.
type ServerStats struct {
	// Requests counts frames handled per request type.
	Requests map[string]int64
	// TuplesSent counts tuples shipped per relation (Scan + Fetch).
	TuplesSent map[string]int64
	// Errors counts requests answered with OK=false.
	Errors int64
}

// Server answers the wire protocol for one site: a store plus the set of
// relations this site owns. It is safe for concurrent use — the store is
// internally synchronized and the stats sit behind a mutex — so one
// Server may back many connections (TCP) or callers (loopback).
type Server struct {
	db     *store.Store
	served map[string]bool // nil: every relation in db

	mu    sync.Mutex
	stats ServerStats
	// met is set once by Instrument before serving; nil keeps Handle on
	// the uninstrumented path.
	met *serverMetrics
	// spans is set once by InstrumentSpans before serving: traced
	// requests are then also retained in the site's own trace store (and
	// carry its service name). Even without it, a request with a sampled
	// Trace context gets its span echoed back to the coordinator.
	spans *obs.SpanTracer
}

// InstrumentSpans attaches a span tracer: traced requests land in its
// store as single-span traces for the site's own /debug/traces, named
// with its service. Call before serving.
func (s *Server) InstrumentSpans(t *obs.SpanTracer) { s.spans = t }

// NewServer builds a server for db. With a non-empty relations list only
// those relations are visible; otherwise every relation in db is served.
func NewServer(db *store.Store, relations []string) *Server {
	s := &Server{db: db, stats: ServerStats{Requests: map[string]int64{}, TuplesSent: map[string]int64{}}}
	if len(relations) > 0 {
		s.served = map[string]bool{}
		for _, r := range relations {
			s.served[r] = true
		}
	}
	return s
}

// Stats returns a deep copy of the accounting counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := ServerStats{
		Requests:   make(map[string]int64, len(s.stats.Requests)),
		TuplesSent: make(map[string]int64, len(s.stats.TuplesSent)),
		Errors:     s.stats.Errors,
	}
	for k, v := range s.stats.Requests {
		out.Requests[k] = v
	}
	for k, v := range s.stats.TuplesSent {
		out.TuplesSent[k] = v
	}
	return out
}

// serves reports whether the relation is visible through this server.
func (s *Server) serves(rel string) bool {
	if s.served == nil {
		return true
	}
	return s.served[rel]
}

// ServedRelations returns the sorted served relation names with their
// arities (relations restricted by NewServer but absent from the store
// are reported with arity 0 until first use).
func (s *Server) ServedRelations() map[string]int {
	out := map[string]int{}
	if s.served != nil {
		for name := range s.served {
			out[name] = 0
		}
	}
	for _, name := range s.db.Names() {
		if s.serves(name) {
			out[name] = s.db.Relation(name).Arity()
		}
	}
	return out
}

// Handle answers one request. It never panics on malformed input: every
// failure comes back as OK=false with the reason in Err.
func (s *Server) Handle(req *Request) *Response {
	var start time.Time
	if s.met != nil || req.Trace != "" {
		start = time.Now()
	}
	typ := requestType(req.Type)
	s.mu.Lock()
	s.stats.Requests[typ]++
	s.mu.Unlock()
	resp := s.handle(req)
	resp.ID = req.ID
	if !resp.OK {
		s.mu.Lock()
		s.stats.Errors++
		s.mu.Unlock()
	}
	if req.Trace != "" {
		s.traceRequest(typ, req, resp, start)
	}
	if s.met != nil {
		s.met.observe(typ, req, resp, time.Since(start))
	}
	return resp
}

// requestType is what a request is counted, labelled and traced as: its
// type when the site answers that type, "unknown" otherwise — so a
// client cannot grow the counters, metric series or span names by
// inventing types.
func requestType(typ string) string {
	switch typ {
	case OpScan, OpFetch, OpApply:
		return typ
	}
	return "unknown"
}

// traceRequest records the site's side of a traced RPC as a child span
// of the coordinator's context and echoes it in the response, so the
// coordinator's trace tree includes real site-side time (wire cost =
// rpc-span duration − site-span duration).
func (s *Server) traceRequest(typ string, req *Request, resp *Response, start time.Time) {
	parent, err := obs.ParseTraceparent(req.Trace)
	if err != nil || !parent.Sampled {
		return
	}
	service := s.spans.Service()
	if service == "" {
		service = "site"
	}
	sd := obs.SpanData{
		TraceID:  parent.TraceID,
		SpanID:   obs.NewSpanID(),
		Parent:   parent.SpanID,
		Name:     "site." + typ,
		Service:  service,
		Start:    start,
		Duration: time.Since(start),
	}
	if req.Relation != "" {
		sd.Attrs = map[string]string{"relation": req.Relation}
	}
	if !resp.OK {
		sd.Err = resp.Err
	}
	s.spans.Store().AddComplete(sd)
	resp.Spans = append(resp.Spans, EncodeSpan(sd))
}

func (s *Server) handle(req *Request) *Response {
	fail := func(format string, args ...any) *Response {
		return &Response{Err: fmt.Sprintf(format, args...)}
	}
	switch req.Type {
	case OpScan, OpFetch:
		if !s.serves(req.Relation) {
			return fail("relation %q not served", req.Relation)
		}
		var rg relation.Range
		if req.Type == OpFetch {
			var err error
			if rg, err = req.fetchRange(); err != nil {
				return fail("%v", err)
			}
		}
		r := s.db.Relation(req.Relation)
		if r == nil {
			return &Response{OK: true}
		}
		if req.Type == OpFetch && (rg.Col < 0 || rg.Col >= r.Arity()) {
			return fail("column %d out of range for %s/%d", rg.Col, req.Relation, r.Arity())
		}
		rp := rowPool.Get().(*[][]relation.Handle)
		rows := s.read(req, (*rp)[:0], rg, r.Arity())
		tuples := encodeRows(rows)
		if cap(rows) <= maxPooledRows {
			clear(rows)
			*rp = rows[:0]
			rowPool.Put(rp)
		}
		s.mu.Lock()
		s.stats.TuplesSent[req.Relation] += int64(len(tuples))
		s.mu.Unlock()
		return &Response{OK: true, Tuples: tuples, Arity: r.Arity()}

	case OpApply:
		if !s.serves(req.Relation) {
			return fail("relation %q not served", req.Relation)
		}
		t, err := DecodeTuple(req.Tuple)
		if err != nil {
			return fail("%v", err)
		}
		if req.Insert {
			changed, err := s.db.Insert(req.Relation, t)
			if err != nil {
				return fail("%v", err)
			}
			return &Response{OK: true, Changed: changed}
		}
		return &Response{OK: true, Changed: s.db.Delete(req.Relation, t)}
	}
	return fail("unknown request type %q", req.Type)
}

// rowPool holds the handle rows a scan or fetch gathers before they are
// rendered for the wire; a rare large scan's rows are not kept.
var rowPool = sync.Pool{New: func() any { return new([][]relation.Handle) }}

const maxPooledRows = 4096

// read appends the handle rows req selects to dst: every tuple for a
// scan, one hash-index bucket for a fetch of a point — none when the
// intern pool lacks the point — an ordered-index range for a fetch
// bounded otherwise.
func (s *Server) read(req *Request, dst [][]relation.Handle, rg relation.Range, arity int) [][]relation.Handle {
	if req.Type == OpScan {
		return s.db.TuplesAppend(dst, req.Relation, arity)
	}
	if v, ok := rg.Point(); ok {
		h, pooled := relation.HandleOf(v)
		if !pooled {
			return dst // a value never interned is in no stored tuple
		}
		return s.db.LookupColsAppend(dst, req.Relation, arity, []int{rg.Col}, []relation.Handle{h})
	}
	return s.db.RangeAppend(dst, req.Relation, arity, []relation.Range{rg})
}

// encodeRows renders handle rows for the wire in two allocations however
// many there are: one []string holds every value and one [][]string
// every row.
func encodeRows(rows [][]relation.Handle) [][]string {
	n := 0
	for _, row := range rows {
		n += len(row)
	}
	vals, out := make([]string, n), make([][]string, len(rows))
	for i, row := range rows {
		out[i], vals = vals[:len(row):len(row)], vals[len(row):]
		for j, h := range row {
			out[i][j] = EncodeValue(relation.InternedValue(h))
		}
	}
	return out
}

// Serve accepts connections on l and answers frames until l is closed;
// it then returns nil. Each connection gets its own goroutine.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				continue
			}
			// Closed listener: normal shutdown.
			return nil
		}
		go s.ServeConn(conn)
	}
}

// ServeConn answers frames on one connection until EOF or error.
func (s *Server) ServeConn(conn net.Conn) {
	defer conn.Close()
	for {
		var req Request
		if err := ReadFrame(conn, &req); err != nil {
			// EOF, partial frame or junk: drop the connection.
			return
		}
		if err := WriteFrame(conn, s.Handle(&req)); err != nil {
			return
		}
	}
}
