package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/netdist"
	"repro/internal/serve"
	"repro/internal/store"
)

// Tracing from outside the program: nothing in internal/ is touched, so
// spans are recorded by decorators on the interfaces that already sit on
// the layer boundaries — http.Handler, serve.Backend, netdist.Transport —
// and by the callers in this package. Spans stay in memory during a
// repetition and are written when the run ends.

// layer indexes the span names, outermost first.
type layer uint8

const (
	layRequest layer = iota // a caller's whole request, from its intended send time
	laySDK                  // the sdk method call (HTTP arm)
	layHandler              // serve.Server.Handler
	layBackend              // the serve.Backend call (checker or coordinator)
	layRPC                  // netdist.Transport.RoundTrip
	numLayers
)

var layerNames = [numLayers]string{"request", "sdk.call", "http.handler", "backend.call", "rpc.roundtrip"}

// span is one recorded interval. Times are nanoseconds since the
// tracer's epoch. All spans of one request share Req.
type span struct {
	Req    uint64 `json:"req"`
	ID     uint32 `json:"id"`
	Parent uint32 `json:"parent"`
	Layer  layer  `json:"layer"` // written as the layer's name
	Op     string `json:"op,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() int64 { return s.End - s.Start }

func (l layer) MarshalText() ([]byte, error) { return []byte(layerNames[l]), nil }

// spanHeader carries "<req>:<parent span id>" from the sdk caller to the
// handler middleware.
const spanHeader = "X-Bench-Span"

// link names the span a deeper layer hangs under.
type link struct {
	req    uint64
	parent uint32
}

type tracer struct {
	on    atomic.Bool
	epoch time.Time
	// remote is set when a transport is decorated too: backend calls then
	// leave their goroutine's id for the round trips to find.
	remote bool
	ids    atomic.Uint32
	reqs   atomic.Uint64

	// One buffer per layer: the layers record from different goroutines,
	// so they mostly do not contend.
	bufs [numLayers]struct {
		mu    sync.Mutex
		spans []span
	}

	mu sync.Mutex
	// byKey maps an in-flight update to the request that sent it and the
	// span its backend call hangs under; callers register before sending.
	byKey map[string]link
	// byGID maps a goroutine inside a backend call to that call's span,
	// which is how a round trip finds the call that caused it: the
	// coordinator calls the transport on the backend call's goroutine.
	byGID map[int64]link
	// batches are the atomic batches in flight. A pipelined coordinator
	// runs their updates on scheduler goroutines of its own, so their
	// round trips are attributed to the most recent batch instead.
	batches []link

	// Counts at the transport boundary, taken while tracing is on.
	rpcs      atomic.Int64
	wireBytes atomic.Int64
	// frames are the first few round trips, kept for the codec and site
	// replays.
	frames []capturedFrame
}

type capturedFrame struct {
	site string
	req  netdist.Request
	resp netdist.Response
}

const maxCapturedFrames = 512

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byKey: map[string]link{}, byGID: map[int64]link{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// reset drops the recorded spans and counts; the next traced repetition
// starts clean.
func (t *tracer) reset() {
	for i := range t.bufs {
		t.bufs[i].mu.Lock()
		t.bufs[i].spans = t.bufs[i].spans[:0]
		t.bufs[i].mu.Unlock()
	}
	t.rpcs.Store(0)
	t.wireBytes.Store(0)
}

func (t *tracer) record(l layer, req uint64, parent uint32, id uint32, op string, start, end int64) {
	b := &t.bufs[l]
	b.mu.Lock()
	b.spans = append(b.spans, span{Req: req, ID: id, Parent: parent, Layer: l, Op: op, Start: start, End: end})
	b.mu.Unlock()
}

// register announces the updates of an op about to be sent.
func (t *tracer) register(o *op, l link) {
	t.mu.Lock()
	for _, k := range o.keys {
		t.byKey[k] = l
	}
	t.mu.Unlock()
}

func (t *tracer) unregister(o *op) {
	t.mu.Lock()
	for _, k := range o.keys {
		delete(t.byKey, k)
	}
	t.mu.Unlock()
}

// reparent makes the handler span the parent of the request's backend
// calls: the caller registered its own span, one layer further out.
func (t *tracer) reparent(req uint64, id uint32) {
	t.mu.Lock()
	for k, l := range t.byKey {
		if l.req == req {
			t.byKey[k] = link{req, id}
		}
	}
	t.mu.Unlock()
}

// goid reads the current goroutine's id off its stack header. There is
// no cheaper way to tie a Transport.RoundTrip to the Backend call that
// issued it without changing the code in between; it runs only while
// tracing is on.
func goid() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if i := bytes.IndexByte(b, ' '); i > 0 {
		if n, err := strconv.ParseInt(string(b[:i]), 10, 64); err == nil {
			return n
		}
	}
	return -1
}

// --- decorators -----------------------------------------------------------

// traceHandler times every request that carries a span header.
func traceHandler(t *tracer, inner http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h := r.Header.Get(spanHeader)
		if h == "" || !t.on.Load() {
			inner.ServeHTTP(w, r)
			return
		}
		reqStr, parentStr, _ := strings.Cut(h, ":")
		req, _ := strconv.ParseUint(reqStr, 10, 64)
		parent, _ := strconv.ParseUint(parentStr, 10, 32)
		id := t.ids.Add(1)
		t.reparent(req, id)
		start := t.now()
		inner.ServeHTTP(w, r)
		t.record(layHandler, req, uint32(parent), id, r.URL.Path, start, t.now())
	})
}

// spanStamper is the caller-side RoundTripper that puts the current
// request's span header on the wire. One per caller, so cur needs no lock:
// http.Client.Do calls RoundTrip on the caller's goroutine.
type spanStamper struct {
	inner http.RoundTripper
	cur   string
}

func (s *spanStamper) RoundTrip(r *http.Request) (*http.Response, error) {
	if s.cur != "" {
		r.Header.Set(spanHeader, s.cur)
	}
	return s.inner.RoundTrip(r)
}

// tracedBackend times the calls the server makes into its backend.
type tracedBackend struct {
	serve.FootprintBackend
	t *tracer
}

// ShardStats forwards the optional scale-out accounting.
func (b tracedBackend) ShardStats() (routed, scatter, replicaReads int) {
	if s, ok := b.FootprintBackend.(serve.ShardStatser); ok {
		return s.ShardStats()
	}
	return 0, 0, 0
}

// enter opens a backend span for the update; the returned func closes it.
func (b tracedBackend) enter(u store.Update, op string, atomic bool) func() {
	t := b.t
	if !t.on.Load() {
		return func() {}
	}
	id := t.ids.Add(1)
	key := updateKey(u)
	var gid int64
	if t.remote {
		gid = goid()
	}
	t.mu.Lock()
	l := t.byKey[key]
	me := link{l.req, id}
	if t.remote {
		t.byGID[gid] = me
		if atomic {
			t.batches = append(t.batches, me)
		}
	}
	t.mu.Unlock()
	start := t.now()
	return func() {
		end := t.now()
		if !t.remote {
			t.record(layBackend, l.req, l.parent, id, op, start, end)
			return
		}
		t.mu.Lock()
		delete(t.byGID, gid)
		if atomic {
			for i, x := range t.batches {
				if x == me {
					t.batches = append(t.batches[:i], t.batches[i+1:]...)
					break
				}
			}
		}
		t.mu.Unlock()
		t.record(layBackend, l.req, l.parent, id, op, start, end)
	}
}

func (b tracedBackend) Check(u store.Update) (core.Report, error) {
	defer b.enter(u, "check", false)()
	return b.FootprintBackend.Check(u)
}

func (b tracedBackend) Apply(u store.Update) (core.Report, error) {
	defer b.enter(u, "apply", false)()
	return b.FootprintBackend.Apply(u)
}

func (b tracedBackend) ApplyBatch(us []store.Update) (core.BatchReport, error) {
	if len(us) > 0 {
		defer b.enter(us[0], "batch", true)()
	}
	return b.FootprintBackend.ApplyBatch(us)
}

// tracedTransport times round trips, counts them and the bytes their
// frames take on the wire, and keeps the first few for the replays.
type tracedTransport struct {
	netdist.Transport
	t *tracer
}

type countingWriter struct{ n int64 }

func (w *countingWriter) Write(p []byte) (int, error) { w.n += int64(len(p)); return len(p), nil }

func (tt tracedTransport) RoundTrip(site string, req *netdist.Request, timeout time.Duration) (*netdist.Response, error) {
	t := tt.t
	if !t.on.Load() {
		return tt.Transport.RoundTrip(site, req, timeout)
	}
	start := t.now()
	resp, err := tt.Transport.RoundTrip(site, req, timeout)
	end := t.now()
	t.mu.Lock()
	l, ok := t.byGID[goid()]
	if !ok && len(t.batches) > 0 {
		l = t.batches[len(t.batches)-1]
	}
	if err == nil && len(t.frames) < maxCapturedFrames {
		t.frames = append(t.frames, capturedFrame{site, *req, *resp})
	}
	t.mu.Unlock()
	t.record(layRPC, l.req, l.parent, t.ids.Add(1), req.Type+" "+site, start, end)
	t.rpcs.Add(1)
	if err == nil {
		var cw countingWriter
		// Errors cannot happen on a counting writer with values that were
		// just decoded from frames.
		_ = netdist.WriteFrame(&cw, req)
		_ = netdist.WriteFrame(&cw, resp)
		t.wireBytes.Add(cw.n)
	}
	return resp, err
}

// --- analysis -------------------------------------------------------------

// traceSummary is what a traced repetition says about the layers.
type traceSummary struct {
	Requests int `json:"requests"`
	// Layers: per layer, the span count and the median and total of the
	// layer's self time per request (span minus the part its children
	// cover).
	Layers map[string]layerSummary `json:"layers"`
	// UnattributedShare is the part of all request latency that the
	// self times do not add up to: children sticking out of their
	// parents, or round trips that found no parent.
	UnattributedShare float64 `json:"unattributed_share"`
	OrphanSpans       int     `json:"orphan_spans"`
}

type layerSummary struct {
	Spans        int     `json:"spans"`
	SelfMedianUS float64 `json:"self_us_median"`
	SelfShare    float64 `json:"self_share_of_latency"`
}

// allSpans returns every recorded span, request roots first.
func (t *tracer) allSpans() []span {
	var out []span
	for i := range t.bufs {
		t.bufs[i].mu.Lock()
		out = append(out, t.bufs[i].spans...)
		t.bufs[i].mu.Unlock()
	}
	return out
}

// selfTimes computes each span's self time: its duration minus the union
// of its children's intervals. Children are not clipped to the parent,
// so a child that sticks out shows up as a shortfall when the request's
// self times are added.
func selfTimes(spans []span) map[uint32]int64 {
	children := map[uint32][]*span{}
	for i := range spans {
		if spans[i].Parent != 0 {
			children[spans[i].Parent] = append(children[spans[i].Parent], &spans[i])
		}
	}
	self := make(map[uint32]int64, len(spans))
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		covered, hi := int64(0), int64(-1<<62)
		for _, k := range kids {
			lo := k.Start
			if lo < hi {
				lo = hi
			}
			if k.End > lo {
				covered += k.End - lo
				hi = k.End
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// summarize adds the self times up per request and per layer.
func summarize(spans []span) traceSummary {
	self := selfTimes(spans)
	roots := map[uint64]*span{}
	for i := range spans {
		if spans[i].Layer == layRequest {
			roots[spans[i].Req] = &spans[i]
		}
	}
	ids := map[uint32]bool{}
	for i := range spans {
		ids[spans[i].ID] = true
	}
	perReq := map[uint64]*[numLayers]int64{}
	sum := traceSummary{Layers: map[string]layerSummary{}}
	var count [numLayers]int
	for i := range spans {
		s := &spans[i]
		root := roots[s.Req]
		if s.Layer != layRequest && (root == nil || !ids[s.Parent]) {
			sum.OrphanSpans++
			continue
		}
		if root == nil {
			continue
		}
		acc := perReq[s.Req]
		if acc == nil {
			acc = new([numLayers]int64)
			perReq[s.Req] = acc
		}
		acc[s.Layer] += self[s.ID]
		count[s.Layer]++
	}
	var latency, gap int64
	var perLayer [numLayers][]float64
	for req, acc := range perReq {
		var s int64
		for l, v := range acc {
			s += v
			perLayer[l] = append(perLayer[l], float64(v)/1e3)
		}
		d := roots[req].dur()
		latency += d
		if s > d {
			gap += s - d
		} else {
			gap += d - s
		}
	}
	sum.Requests = len(perReq)
	if latency > 0 {
		sum.UnattributedShare = float64(gap) / float64(latency)
	}
	for l := layer(0); l < numLayers; l++ {
		if count[l] == 0 {
			continue
		}
		var tot float64
		for _, v := range perLayer[l] {
			tot += v
		}
		sum.Layers[layerNames[l]] = layerSummary{
			Spans:        count[l],
			SelfMedianUS: median(perLayer[l]),
			SelfShare:    tot * 1e3 / float64(latency),
		}
	}
	return sum
}

// reqSpans is one request's root span and, per layer, the summed
// duration of its spans.
type reqSpans struct {
	root *span
	by   [numLayers]int64
}

func requestsOf(spans []span) map[uint64]*reqSpans {
	out := map[uint64]*reqSpans{}
	for i := range spans {
		s := &spans[i]
		r := out[s.Req]
		if r == nil {
			r = &reqSpans{}
			out[s.Req] = r
		}
		if s.Layer == layRequest {
			r.root = s
		}
		r.by[s.Layer] += s.dur()
	}
	return out
}

// durations returns the durations, in nanoseconds, of the layer's spans
// that pick accepts.
func durations(spans []span, l layer, pick func(*span) bool) []float64 {
	var out []float64
	for i := range spans {
		if spans[i].Layer == l && (pick == nil || pick(&spans[i])) {
			out = append(out, float64(spans[i].dur()))
		}
	}
	return out
}

// writeTrace writes the spans of the last traced repetition.
func writeTrace(path, workload string, seed int64, sum traceSummary, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(struct {
		Workload string       `json:"workload"`
		Seed     int64        `json:"seed"`
		Summary  traceSummary `json:"summary"`
		Spans    []span       `json:"spans"`
	}{workload, seed, sum, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
