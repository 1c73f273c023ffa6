package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/serve/sdk"
	"repro/internal/store"
)

// serve_http: the whole single-node service. A serve.Server (one apply
// worker, queue 4096, no rate limit) behind a real 127.0.0.1 listener in
// this process, driven through the HTTP sdk over exactly nproc
// connections by nproc callers. The constraints are embed_flat's, so the
// decision is a small part of a request.

// Offered rates of the open-loop phases, requests per second, fixed on
// every commit. On the 2-core reference box the closed loop reaches about
// 12 000 requests/s with both cores; the open loop's pacer spins on one
// of them, which leaves the service about 6 000. The nominal rate is a
// third of that, the side rates a sixth and a half. Above 3 000/s the
// pacer itself runs later than a tenth of a millisecond at p99.
const (
	rateNominal = 2000
	rateLo      = 1000
	rateHi      = 3000
	// latencyLimit is the p99 a rate must meet to count as sustained.
	latencyLimit = 5 * time.Millisecond
	// closedPasses is how often a repetition sends the streams: one pass
	// lasts an eighth of a second, too short to time a rate by.
	closedPasses = 6
	// lateLimit: a phase whose pacer ran later than this at p99 is run
	// again, once.
	lateLimit = 100 * time.Microsecond
)

// httpCycle builds one caller's stream: 70 % checks, 25 % applies, 5 %
// atomic batches of batchSize updates.
func httpCycle(shape *rand.Rand, g *flatGen, segments, segOps int) *cycle {
	const batchSize = 8
	c := newCycle(shape, 32)
	arms, bad, checks := newDeck(shape, 70, 25, 5), violateDeck(shape), newDeck(shape, 1, 1, 2)
	for s := 0; s < segments; s++ {
		for c.begin(segOps); c.open(); {
			switch arm := arms.draw(); {
			case arm == 2 && len(c.pending) >= batchSize:
				c.undoBatch(batchSize, true)
			case arm == 2 && c.fits(batchSize):
				us := make([]store.Update, batchSize)
				for i := range us {
					us[i] = g.emp(false)
				}
				c.batch(us, true, -1)
			case arm >= 1 && c.wantUndo():
				c.undo()
			case arm >= 1 && c.fits(1):
				violate := bad.draw() == 1
				c.apply(g.emp(violate), !violate)
			default:
				violate := bad.draw() == 1
				switch checks.draw() {
				case 0:
					c.check(g.interval(violate), !violate)
				case 1:
					c.check(g.point(violate), !violate)
				default:
					c.check(g.emp(violate), !violate)
				}
			}
		}
		c.endSegment()
	}
	return c
}

// obsMode selects what the stack carries of the program's own tracing.
type obsMode int

const (
	obsNone    obsMode = iota // no span tracer at all
	obsIdle                   // tracer and bridge installed, nothing sampled
	obsSampled                // every request carries a sampled traceparent
)

// httpStack is one served checker with the callers' SDK handles.
type httpStack struct {
	chk     *core.Checker
	srv     *serve.Server
	http    *http.Server
	served  chan struct{}
	clients *http.Transport
	callers []*caller
}

func (s *httpStack) close() {
	// Shutdown errors only say that a connection was still open.
	_ = s.http.Close()
	<-s.served
	s.srv.Close()
	s.clients.CloseIdleConnections()
}

// newHTTPStack seeds a store, serves it and connects one SDK per cycle.
func newHTTPStack(fill func(*store.Store) error, cycs []*cycle, tr *tracer, mode obsMode) (*httpStack, error) {
	db := store.New()
	if err := fill(db); err != nil {
		return nil, err
	}
	var spans *obs.SpanTracer
	var bridge *obs.SpanBridge
	opts := serialChecker
	if mode != obsNone {
		// Rate 0: only requests that arrive with a sampled traceparent get
		// spans (the production state of a traced daemon).
		spans = obs.NewSpanTracer("bench", obs.NewTraceStore(256), 0)
		bridge = obs.NewSpanBridge(spans)
		opts.Tracer = bridge
	}
	st := &httpStack{chk: core.New(db, opts), served: make(chan struct{})}
	if err := addConstraints(st.chk, flatConstraints()); err != nil {
		return nil, err
	}
	var backend serve.Backend = st.chk
	if tr != nil {
		backend = tracedBackend{st.chk, tr}
	}
	st.srv = serve.New(backend, serve.Config{QueueDepth: 4096, ApplyWorkers: 1, Spans: spans, SpanBridge: bridge})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		st.srv.Close()
		return nil, err
	}
	handler := st.srv.Handler("bench", nil, nil)
	if tr != nil {
		handler = traceHandler(tr, handler)
	}
	st.http = &http.Server{Handler: handler}
	go func() {
		// Serve returns when close() closes the server.
		_ = st.http.Serve(ln)
		close(st.served)
	}()
	n := len(cycs)
	st.clients = &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, MaxIdleConns: n}
	for i, cyc := range cycs {
		stamp := &spanStamper{inner: st.clients}
		cfg := sdk.Config{
			URL:        "http://" + ln.Addr().String(),
			HTTPClient: &http.Client{Transport: stamp, Timeout: 30 * time.Second},
			ClientID:   fmt.Sprintf("bench-%d", i),
		}
		if mode == obsSampled {
			cfg.Trace = func() obs.SpanContext { return obs.NewSpanContext(true) }
		}
		client, err := sdk.New(cfg)
		if err != nil {
			st.close()
			return nil, err
		}
		c := newCaller(cyc, func(o *op) (bool, bool) { return doSDK(client, o) })
		c.stamp = stamp
		c.depth = func() int { return st.srv.Stats().QueueDepth }
		st.callers = append(st.callers, c)
	}
	return st, nil
}

// doSDK sends one op through the sdk. A refusal (429, 503), a transport
// error and a wrong answer all count as failed.
func doSDK(client *sdk.SDK, o *op) (admitted, ok bool) {
	switch o.kind {
	case opCheck:
		d, err := client.Check(o.u)
		return d.OK(), err == nil && d.OK() == o.admit
	case opApply:
		d, err := client.Apply(o.u)
		return d.OK(), err == nil && d.OK() == o.admit && d.Applied == o.admit
	default:
		r, err := client.Batch(o.us, o.atomic)
		return r.Applied == len(o.us), err == nil && r.Applied == o.applied
	}
}

type httpInst struct {
	*httpStack
	fill func(*store.Store) error
	cycs []*cycle
	tr   *tracer
}

func buildServeHTTP(seed int64, tiny bool, tr *tracer) (instance, error) {
	sz, segments, segOps := flatSizes{5000, 20, 200}, 4, 250
	if tiny {
		sz, segments, segOps = flatSizes{200, 5, 40}, 1, 60
	}
	var ls []relation.Tuple
	fill := func(db *store.Store) (err error) {
		ls, err = seedFlat(rand.New(rand.NewSource(seed)), db, sz)
		return err
	}
	if err := fill(store.New()); err != nil { // the generator needs the intervals
		return nil, err
	}
	cycs := make([]*cycle, runtime.GOMAXPROCS(0))
	for i := range cycs {
		rng := rand.New(rand.NewSource(callerSeed(seed, i)))
		cycs[i] = httpCycle(shapeRand(i), &flatGen{rng: rng, band: i, depts: sz.depts, ls: ls}, segments, segOps)
	}
	st, err := newHTTPStack(fill, cycs, tr, obsNone)
	if err != nil {
		return nil, err
	}
	h := &httpInst{httpStack: st, fill: fill, cycs: cycs, tr: tr}
	if failed, _ := closedLoop(st.callers, nil, false, true); failed > 0 {
		st.close()
		return nil, fmt.Errorf("warm-up: %d requests failed or disagree with the generator", failed)
	}
	return h, nil
}

// chunk is closedPasses closed-loop passes over every caller's stream:
// the capacity and, per request, the latency a caller sees when nproc of
// them each wait for a reply before sending again. The open-loop phases
// belong to the traced run (layerMetrics).
func (h *httpInst) chunk(traced bool) chunkStats {
	requests, decisions := streamTotals(h.callers) // of one pass
	cs := chunkStats{
		requests:  requests * closedPasses,
		decisions: decisions * closedPasses,
		lat:       make([]float64, 0, requests*closedPasses),
	}
	for pass := 0; pass < closedPasses; pass++ {
		failed, elapsed := closedLoop(h.callers, h.tr, traced, false)
		cs.failed, cs.elapsed = cs.failed+failed, cs.elapsed+elapsed
		for _, c := range h.callers {
			cs.lat = append(cs.lat, c.lat...)
		}
	}
	return cs
}

// open runs one open-loop phase, and once more if the pacer ran late;
// the second attempt then counts, and carries "-rerun" in its span labels.
func (h *httpInst) open(traced bool, rate float64) openStats {
	name := fmt.Sprintf("open%d", int(rate))
	st := openLoop(h.callers, h.tr, traced, rate, newLoadName(name))
	if st.lateP99 > float64(lateLimit) && st.failed == 0 {
		st = openLoop(h.callers, h.tr, traced, rate, newLoadName(name+"-rerun"))
	}
	return st
}

func (h *httpInst) handles() handles {
	return handles{chk: h.chk, progs: parseConstraints(flatConstraints()),
		sample: sampleUpdates(h.cycs[0].ops, 512), srv: h.srv}
}

func (h *httpInst) close() { h.httpStack.close() }

func (h *httpInst) verify(budget time.Duration) (checked, failed int, err error) {
	return verifyCallers(h.fill, flatConstraints(), h.callers, h.chk.DB(), budget)
}

// verifyCallers replays the callers' streams through the oracle and
// compares its final store with the system's.
func verifyCallers(fill func(*store.Store) error, cons []constraint, cs []*caller, got *store.Store, budget time.Duration) (checked, failed int, err error) {
	db := store.New()
	if err := fill(db); err != nil {
		return 0, 0, err
	}
	o, err := newOracle(db, cons)
	if err != nil {
		return 0, 0, err
	}
	cycs, firsts := make([]*cycle, len(cs)), make([][]bool, len(cs))
	for i, c := range cs {
		cycs[i], firsts[i] = c.cyc, c.first
	}
	if err := o.run(cycs, firsts, budget); err != nil {
		return 0, 0, err
	}
	if sortedDump(db) != sortedDump(got) {
		o.failed++
	}
	return o.checked + 1, o.failed, nil
}

// layerMetrics: the serve, sdk, loadgen and obs layers.
func (h *httpInst) layerMetrics(m metrics, spans []span, o runOpts) error {
	closed := func(s *span) bool { return strings.HasSuffix(s.Op, "@closed") }
	reqs := requestsOf(spans)
	var handler, backend, queueCodec, hop []float64
	for _, r := range reqs {
		if r.root == nil || !closed(r.root) || r.by[layHandler] == 0 {
			continue
		}
		handler = append(handler, float64(r.by[layHandler]))
		backend = append(backend, float64(r.by[layBackend]))
		queueCodec = append(queueCodec, float64(r.by[layHandler]-r.by[layBackend]))
		hop = append(hop, float64(r.root.dur()-r.by[layHandler]))
	}
	m["serve.handler_us"] = median(handler) / 1e3
	m["serve.backend_us"] = median(backend) / 1e3
	m["serve.queue_codec_us"] = median(queueCodec) / 1e3
	m["sdk.http_hop_us"] = median(hop) / 1e3
	m["serve.queue_depth_max"] = float64(queueDepthMax(h.callers))

	// The load generator: an open-loop phase at each of the three rates,
	// traced, so the span file shows where latency goes as the load rises.
	h.tr.on.Store(true)
	type phase struct {
		rate float64
		st   openStats
		lat  []float64
	}
	phases := []phase{{rate: rateLo}, {rate: rateNominal}, {rate: rateHi}}
	for i := range phases {
		phases[i].st = h.open(true, phases[i].rate)
	}
	h.tr.on.Store(false)
	all := h.tr.allSpans()
	for i := range phases {
		p := &phases[i]
		if p.st.failed > 0 {
			return fmt.Errorf("%d requests failed at %v requests/s", p.st.failed, p.rate)
		}
		p.lat = durations(all, layRequest, func(s *span) bool { return strings.HasSuffix(s.Op, "@"+p.st.load) })
	}
	m["loadgen.p99_us_lo"], m["loadgen.p99_us_hi"] = quantile(phases[0].lat, 0.99)/1e3, quantile(phases[2].lat, 0.99)/1e3
	m["loadgen.p50_us_nominal"], m["loadgen.p99_us_nominal"] = quantile(phases[1].lat, 0.50)/1e3, quantile(phases[1].lat, 0.99)/1e3
	m["loadgen.achieved_share"] = 1
	for _, p := range phases {
		m["loadgen.late_p99_us"] = max(m["loadgen.late_p99_us"], p.st.lateP99/1e3)
		m["loadgen.achieved_share"] = min(m["loadgen.achieved_share"], p.st.achieved)
		m["loadgen.backlog_max"] = max(m["loadgen.backlog_max"], float64(p.st.backlogMax))
		// A rate is sustained when it meets the latency limit and the
		// backlog stayed a small part of the sends (a growing backlog would
		// take a share of them that grows with the phase's length).
		if quantile(p.lat, 0.99) <= float64(latencyLimit) && p.st.backlogMax*20 < p.st.sends {
			m["loadgen.max_rate_ok_per_s"] = max(m["loadgen.max_rate_ok_per_s"], p.rate)
		}
	}

	h.inproc(m)
	h.codec(m, o.replay)
	return h.obsArms(m, o)
}

// inproc measures the queue hand-off without the codec: Server.Check
// called in process, minus the backend's share of the call.
func (h *httpInst) inproc(m metrics) {
	tr := h.tr
	tr.on.Store(true)
	c := h.callers[0]
	var handoff []float64
	for i := range c.cyc.ops {
		o := &c.cyc.ops[i]
		if o.kind != opCheck {
			continue
		}
		req, rid := tr.reqs.Add(1), tr.ids.Add(1)
		tr.register(o, link{req, rid})
		t0 := tr.now()
		// The verdict was checked on every pass before.
		_, _ = h.srv.Check("bench-inproc", o.u)
		t1 := tr.now()
		tr.unregister(o)
		tr.record(layRequest, req, 0, rid, "check@inproc", t0, t1)
	}
	tr.on.Store(false)
	for _, r := range requestsOf(tr.allSpans()) {
		if r.root != nil && r.root.Op == "check@inproc" {
			handoff = append(handoff, float64(r.root.dur()-r.by[layBackend]))
		}
	}
	m["serve.inproc_us"] = median(handoff) / 1e3
}

// codec replays the server's side of the JSON codec: decode a
// CheckRequest and convert it to an update, render a report as a
// Decision and encode it.
func (h *httpInst) codec(m metrics, budget time.Duration) {
	sample := sampleUpdates(h.cycs[0].ops, 256)
	bodies := make([][]byte, len(sample))
	reports := make([]core.Report, len(sample))
	for i, u := range sample {
		bodies[i], _ = json.Marshal(serve.CheckRequest{Update: serve.FromUpdate(u)})
		reports[i], _ = h.chk.Check(u)
	}
	var out bytes.Buffer
	m["serve.codec_ns"] = timePasses(budget, func() int {
		for i := range sample {
			var req serve.CheckRequest
			dec := json.NewDecoder(bytes.NewReader(bodies[i]))
			dec.UseNumber()
			// The bodies were encoded a moment ago from valid updates.
			_ = dec.Decode(&req)
			_, _ = req.Update.ToUpdate()
			out.Reset()
			_ = json.NewEncoder(&out).Encode(serve.DecisionFrom(reports[i], false))
		}
		return len(sample)
	})
}

// obsArms measures what the program's own span layer costs a closed-loop
// caller: a stack with the tracer installed and nothing sampled, and one
// where every request is sampled, against a plain one, in alternating
// closed-loop passes. None of the three carries this package's decorators.
func (h *httpInst) obsArms(m metrics, o runOpts) error {
	var stacks []*httpStack
	for _, mode := range []obsMode{obsNone, obsIdle, obsSampled} {
		st, err := newHTTPStack(h.fill, h.cycs, nil, mode)
		if err != nil {
			return err
		}
		defer st.close()
		stacks = append(stacks, st)
	}
	rounds := 6
	if o.reps > 0 {
		rounds = 2
	}
	rates := make([][]float64, len(stacks))
	for r := 0; r < rounds; r++ {
		for i, st := range stacks {
			failed, elapsed := closedLoop(st.callers, nil, false, false)
			if failed > 0 {
				return fmt.Errorf("%d requests failed", failed)
			}
			rates[i] = append(rates[i], 1/elapsed.Seconds())
		}
	}
	m["obs.idle_overhead_share"] = 1 - share(median(rates[1]), median(rates[0]))
	m["obs.sampled_overhead_share"] = 1 - share(median(rates[2]), median(rates[0]))
	return nil
}
