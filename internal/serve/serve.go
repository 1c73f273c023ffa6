// Package serve is the decision-service subsystem: a long-lived front
// end that exposes the staged checking pipeline to real traffic. A
// Server wraps one core.Checker behind a bounded request queue drained
// by one dispatcher: at one apply worker (Config.ApplyWorkers <= 1) it
// runs each request itself, above that it hands them to a conflict-aware
// apply scheduler (internal/sched) that runs non-conflicting requests
// concurrently while serializing conflicting ones in admission order —
// same verdicts, same final store, higher throughput. Either way the
// server provides
//
//   - backpressure: once QueueDepth requests wait — in the queue or in
//     the scheduler — the next is rejected immediately with a BusyError
//     carrying a Retry-After estimate derived from the number admitted
//     and unanswered and an EWMA of recent per-request service time;
//   - admission control: per-client token buckets (client = the
//     X-Client-ID header over HTTP, or the SDK's configured id) so one
//     hot client cannot starve the rest;
//   - a decision log: a buffered JSONL sink on its own writer goroutine
//     that counts drops instead of blocking the worker when the sink
//     falls behind;
//   - graceful drain: Close stops admitting, answers everything already
//     queued, then flushes the log;
//   - cc_serve_* metrics on the shared obs registry.
//
// The HTTP layer (http.go) and the embeddable SDK (internal/serve/sdk)
// are thin shells over the same Check/Apply/Batch entry points, so both
// return byte-identical decisions for the same stream.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/store"
)

// Admission-rejection reasons, used in BusyError.Reason, the
// cc_serve_admission_rejections_total metric and the stats payload.
const (
	ReasonQueueFull   = "queue_full"
	ReasonRateLimited = "rate_limited"
	ReasonDraining    = "draining"
)

// ErrDraining rejects requests that arrive after Close began: the
// server answers what it already queued and admits nothing new.
var ErrDraining = errors.New("serve: server is draining")

// ErrBatchTooLarge rejects a batch exceeding Config.MaxBatch.
var ErrBatchTooLarge = errors.New("serve: batch exceeds the configured maximum")

// BusyError is a load-shedding rejection: the request was not queued,
// and the client should retry after the advised delay. The HTTP layer
// renders it as 429 with a Retry-After header.
type BusyError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *BusyError) Error() string {
	return fmt.Sprintf("serve: %s (retry after %v)", e.Reason, e.RetryAfter)
}

// Config tunes a Server. The zero value serves: a 1024-deep queue, no
// per-client rate limit, 1024-update batches, no decision log, no
// metrics.
type Config struct {
	// QueueDepth bounds the requests that may wait: beyond the
	// ApplyWorkers a server may be serving, this many may be admitted and
	// not yet answered — queued, or (above one worker, where the
	// dispatcher empties the queue into a scheduler that never refuses)
	// held by the scheduler. A request arriving past the bound is
	// rejected with BusyError{ReasonQueueFull}. 0 means 1024.
	QueueDepth int
	// RatePerClient is the steady per-client admission rate in
	// requests/second, enforced by a token bucket per client id; 0
	// disables admission control entirely.
	RatePerClient float64
	// Burst is the token-bucket capacity (how far a client may run ahead
	// of its steady rate); 0 means max(RatePerClient, 1).
	Burst float64
	// MaxBatch bounds the updates accepted in one batch request. 0 means
	// 1024.
	MaxBatch int
	// DecisionLog, when non-nil, receives one JSON line per decided
	// update (and per update inside a batch). Writes happen on a
	// dedicated goroutine behind a DecisionLogDepth-deep buffer; when the
	// sink falls behind, records are dropped and counted rather than
	// stalling the worker.
	DecisionLog io.Writer
	// DecisionLogDepth is the decision-log buffer, in records. 0 means
	// 1024.
	DecisionLogDepth int
	// Metrics, when non-nil, receives the cc_serve_* families.
	Metrics *obs.Registry
	// Spans, when non-nil, turns on distributed tracing: each sampled
	// request becomes a trace rooted at the HTTP handler, with queue
	// wait, the decision itself, bridged checker phases and (behind a
	// coordinator backend) per-site RPCs as child spans. Completed
	// traces land in Spans.Store().
	Spans *obs.SpanTracer
	// SpanBridge, when non-nil alongside Spans, is the bridge installed
	// as the checker's Tracer: the dispatcher points it at the active
	// request's decision span before driving the backend and clears it
	// after, so checker phase events nest under the right request. The
	// bridge is single-flight by design, so it is used only at one apply
	// worker; with ApplyWorkers > 1 the checker runs untraced and requests
	// carry sched.wait/worker.wait/decide envelope spans instead.
	SpanBridge *obs.SpanBridge

	// ApplyWorkers sizes the conflict-aware apply scheduler: requests
	// whose footprints do not conflict are decided concurrently,
	// conflicting ones in admission order, and at most this many compute
	// at once — a request that may wait on a site (sched.Footprint.Wire)
	// does not count while it runs, so what bounds those is QueueDepth.
	// 0 or 1 runs no scheduler: the dispatcher decides each request
	// itself, in admission order, and computes no footprint. Values > 1
	// require a backend that exposes footprints and admits concurrent
	// applies (FootprintBackend — *core.Checker and netdist.ServeBackend
	// both qualify); otherwise the server runs one worker.
	ApplyWorkers int

	// workerGate, when non-nil, is received from before each task is
	// executed — a test hook to hold the worker mid-queue.
	workerGate chan struct{}
}

func (c Config) queueDepth() int {
	if c.QueueDepth <= 0 {
		return 1024
	}
	return c.QueueDepth
}

func (c Config) maxBatch() int {
	if c.MaxBatch <= 0 {
		return 1024
	}
	return c.MaxBatch
}

func (c Config) burst() float64 {
	if c.Burst > 0 {
		return c.Burst
	}
	return math.Max(c.RatePerClient, 1)
}

// Endpoint names, used as metric label values and stats keys.
const (
	EndpointCheck = "check"
	EndpointApply = "apply"
	EndpointBatch = "batch"
	EndpointStats = "stats"
)

type opKind int

const (
	opCheck opKind = iota
	opApply
	opBatch
	opStats
)

func (o opKind) endpoint() string {
	switch o {
	case opCheck:
		return EndpointCheck
	case opApply:
		return EndpointApply
	case opBatch:
		return EndpointBatch
	}
	return EndpointStats
}

// task is one queued request; reply is buffered so the worker never
// blocks on an abandoned caller.
type task struct {
	op     opKind
	client string
	u      store.Update
	us     []store.Update
	atomic bool
	reply  chan taskResult

	// span is the request's root span (nil when untraced); traceID is
	// set whenever the request carries a trace id — sampled or not — so
	// decision-log lines join against client-side traces either way.
	span     *obs.Span
	traceID  string
	enqueued time.Time
}

type taskResult struct {
	rep   core.Report
	batch BatchOutcome
	stats core.Stats
	err   error
}

// BatchOutcome is the worker-level result of a batch request.
type BatchOutcome struct {
	// Reports holds one report per attempted update, in order; an atomic
	// batch stops at the first rejection, so it may be shorter than the
	// request.
	Reports []core.Report
	// Atomic echoes the request mode.
	Atomic bool
	// Applied counts the updates left applied in the store: every
	// admitted one when non-atomic, all-or-nothing when atomic.
	Applied int
	// FailedAt is the index of the rejected update that rolled an atomic
	// batch back, -1 otherwise.
	FailedAt int
}

// Backend is the decision engine a Server fronts. *core.Checker
// satisfies it directly (the single-checker deployment);
// netdist.ServeBackend adapts a distributed Coordinator so the same
// server can front a multi-site system. At one apply worker the server
// drives the backend only from its dispatcher goroutine; more
// (Config.ApplyWorkers > 1) require FootprintBackend.
type Backend interface {
	Check(store.Update) (core.Report, error)
	Apply(store.Update) (core.Report, error)
	ApplyBatch([]store.Update) (core.BatchReport, error)
	Stats() core.Stats
}

// FootprintBackend is a Backend that can be driven by more than one
// apply worker: it derives per-update footprints for conflict detection
// and guarantees that concurrent calls for non-conflicting updates are
// equivalent to some sequential order. *core.Checker and
// netdist.ServeBackend implement it.
type FootprintBackend interface {
	Backend
	// Footprints returns the backend's footprint view; called per
	// request, so constraint-set changes are picked up.
	Footprints() core.Footprints
}

// Server is the decision service. All exported methods are safe for
// concurrent use; the wrapped checker is only ever driven by the
// dispatcher, or by the tasks it hands the scheduler.
type Server struct {
	chk Backend
	cfg Config

	// fpb and sched are set above one apply worker (effective
	// ApplyWorkers > 1): the dispatcher footprints each task through fpb
	// and submits it to the scheduler instead of running it inline.
	fpb          FootprintBackend
	sched        *sched.Scheduler
	applyWorkers int // effective worker count

	mu       sync.RWMutex // excludes enqueue vs Close's queue close
	draining bool
	queue    chan *task
	// admitted counts requests enqueued and not yet answered (answer);
	// enqueue holds it to QueueDepth + applyWorkers.
	admitted atomic.Int64

	workerDone chan struct{}
	closeOnce  sync.Once

	limMu   sync.Mutex
	buckets map[string]*bucket
	// sweepAt is the bucket count at which admitting a new client first
	// drops the buckets that have refilled.
	sweepAt int
	clock   func() time.Time // injected in tests

	dlog *decisionLog

	// ewmaNanos tracks recent per-task service time for Retry-After
	// estimation (α = 1/8).
	ewmaNanos atomic.Int64

	requests   [4]atomic.Int64          // by opKind
	rejections map[string]*atomic.Int64 // by reason
	met        *serveMetrics
}

// New builds a Server over chk and starts its dispatcher. The caller
// owns chk and must not drive it concurrently with the server; Close
// stops the dispatcher and flushes the decision log.
func New(chk Backend, cfg Config) *Server {
	s := &Server{
		chk:        chk,
		cfg:        cfg,
		queue:      make(chan *task, cfg.queueDepth()),
		workerDone: make(chan struct{}),
		buckets:    map[string]*bucket{},
		clock:      time.Now,
		rejections: map[string]*atomic.Int64{
			ReasonQueueFull:   new(atomic.Int64),
			ReasonRateLimited: new(atomic.Int64),
			ReasonDraining:    new(atomic.Int64),
		},
	}
	s.ewmaNanos.Store(int64(50 * time.Microsecond))
	if cfg.Metrics != nil {
		s.met = newServeMetrics(cfg.Metrics)
	}
	if cfg.DecisionLog != nil {
		s.dlog = newDecisionLog(cfg.DecisionLog, cfg.DecisionLogDepth)
	}
	s.applyWorkers = 1
	if fb, ok := chk.(FootprintBackend); ok && cfg.ApplyWorkers > 1 {
		// Without footprints the server runs one worker rather than fail.
		s.fpb = fb
		s.applyWorkers = cfg.ApplyWorkers
		s.sched = sched.New(sched.Options{
			Workers: cfg.ApplyWorkers,
			Metrics: sched.NewMetrics(cfg.Metrics, "serve"),
		})
	}
	go s.dispatcher()
	return s
}

// ApplyWorkers returns how many requests may compute at once (1 when
// Config.ApplyWorkers asks for at most one, or for more from a backend
// without footprints).
func (s *Server) ApplyWorkers() int { return s.applyWorkers }

// Check decides the update without applying it.
func (s *Server) Check(client string, u store.Update) (core.Report, error) {
	return s.checkTraced(client, u, nil, "")
}

func (s *Server) checkTraced(client string, u store.Update, sp *obs.Span, traceID string) (core.Report, error) {
	res, err := s.do(&task{op: opCheck, client: client, u: u, span: sp, traceID: traceID})
	return res.rep, err
}

// Apply decides the update and, when admitted, applies it.
func (s *Server) Apply(client string, u store.Update) (core.Report, error) {
	return s.applyTraced(client, u, nil, "")
}

func (s *Server) applyTraced(client string, u store.Update, sp *obs.Span, traceID string) (core.Report, error) {
	res, err := s.do(&task{op: opApply, client: client, u: u, span: sp, traceID: traceID})
	return res.rep, err
}

// Batch runs the updates in one queue slot: atomically (all-or-nothing,
// core.ApplyBatch) or independently (rejected updates are skipped, the
// rest stay applied).
func (s *Server) Batch(client string, us []store.Update, atomic bool) (BatchOutcome, error) {
	return s.batchTraced(client, us, atomic, nil, "")
}

func (s *Server) batchTraced(client string, us []store.Update, atomic bool, sp *obs.Span, traceID string) (BatchOutcome, error) {
	if len(us) > s.cfg.maxBatch() {
		return BatchOutcome{}, ErrBatchTooLarge
	}
	res, err := s.do(&task{op: opBatch, client: client, us: us, atomic: atomic, span: sp, traceID: traceID})
	return res.batch, err
}

// CheckerStats snapshots the wrapped checker's statistics through the
// queue (the checker's counters are not safe to read mid-Apply).
func (s *Server) CheckerStats() (core.Stats, error) {
	res, err := s.do(&task{op: opStats})
	return res.stats, err
}

// do admits, enqueues, and waits for the answer.
func (s *Server) do(t *task) (taskResult, error) {
	// Stats requests skip the token bucket: they are cheap, and load
	// shedding that blinds the operator is self-defeating.
	if t.op != opStats {
		if err := s.admit(t.client); err != nil {
			s.reject(ReasonRateLimited)
			return taskResult{}, err
		}
	}
	t.reply = make(chan taskResult, 1)
	start := s.clock()
	t.enqueued = time.Now()
	if err := s.enqueue(t); err != nil {
		if t.span != nil {
			t.span.SetError(err.Error())
		}
		return taskResult{}, err
	}
	res := <-t.reply
	verdict := verdictLabel(t, res)
	if s.met != nil {
		s.met.latency.With(t.op.endpoint(), verdict).Observe(time.Since(start).Seconds())
	}
	if t.span != nil {
		t.span.SetAttr("verdict", verdict)
		if res.err != nil {
			t.span.SetError(res.err.Error())
		}
	}
	return res, res.err
}

// verdictLabel classifies a finished request for the latency histogram.
func verdictLabel(t *task, res taskResult) string {
	switch {
	case res.err != nil:
		return "error"
	case t.op == opCheck || t.op == opApply:
		if res.rep.Applied {
			return "ok"
		}
		return "violation"
	case t.op == opBatch:
		if res.batch.Applied == len(t.us) {
			return "ok"
		}
		return "violation"
	}
	return "ok"
}

// enqueue places the task on the queue unless the server is draining,
// the queue is full, or as many requests as may wait and be served are
// admitted and unanswered already — at one apply worker the two say the
// same, above it the queue is always nearly empty and the count is what
// sheds. It holds the read lock across the send so Close cannot close
// the queue under an in-flight send.
func (s *Server) enqueue(t *task) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		s.reject(ReasonDraining)
		return ErrDraining
	}
	if s.admitted.Add(1) <= int64(cap(s.queue)+s.applyWorkers) {
		select {
		case s.queue <- t:
			s.requests[t.op].Add(1)
			if s.met != nil {
				s.met.queueDepth.Set(int64(len(s.queue)))
				s.met.requests.With(t.op.endpoint()).Inc()
			}
			return nil
		default:
		}
	}
	ahead := s.admitted.Add(-1)
	s.reject(ReasonQueueFull)
	return &BusyError{Reason: ReasonQueueFull, RetryAfter: s.retryAfter(ahead)}
}

// retryAfter estimates how long the n requests admitted ahead need to
// be answered: n × recent per-task service time, clamped to [10ms, 5s].
func (s *Server) retryAfter(n int64) time.Duration {
	d := time.Duration(n) * time.Duration(s.ewmaNanos.Load())
	return min(max(d, 10*time.Millisecond), 5*time.Second)
}

func (s *Server) reject(reason string) {
	s.rejections[reason].Add(1)
	if s.met != nil {
		s.met.rejections.With(reason).Inc()
	}
}

// dispatcher drains the queue until Close closes it, answering every
// queued task (the drain guarantee); a request's queue.wait ends here.
// At one apply worker it runs each task inline. Otherwise it hands each
// to the scheduler — a non-atomic batch as one task per update — and
// what a task waits for afterwards is named by the scheduler (sched.wait,
// worker.wait); Submit never blocks, so what bounds the tasks the
// scheduler holds is admission (enqueue). When Close closes the queue it
// drains the scheduler too.
func (s *Server) dispatcher() {
	defer close(s.workerDone)
	for t := range s.queue {
		if t.span != nil {
			s.cfg.Spans.RecordChild(t.span, "queue.wait", t.enqueued, time.Since(t.enqueued), nil, "")
		}
		switch {
		case s.sched == nil:
			s.run(t, sched.Info{})
		case t.op == opBatch && !t.atomic:
			s.submitBatch(t)
		default:
			s.sched.Submit(s.footprintFor(t), func(info sched.Info) { s.run(t, info) })
		}
	}
	if s.sched != nil {
		s.sched.Close()
	}
}

// run executes one task and answers it. A task the scheduler ran carries
// a sched.wait child span whenever it stalled behind a conflicting one
// and a worker.wait one whenever it then waited for a worker token. The
// span bridge is single-flight, so only a task run inline points it at
// its decision span; under the scheduler the checker runs untraced.
func (s *Server) run(t *task, info sched.Info) {
	if s.cfg.workerGate != nil {
		<-s.cfg.workerGate
	}
	if s.met != nil {
		s.met.queueDepth.Set(int64(len(s.queue)))
	}
	start := time.Now()
	var decide *obs.Span
	if t.span != nil {
		ready := start.Add(-info.WorkerWait)
		if info.Conflicts > 0 {
			s.cfg.Spans.RecordChild(t.span, "sched.wait", ready.Add(-info.ConflictWait), info.ConflictWait, stallAttrs(info), "")
		}
		if info.WorkerWait > 0 {
			s.cfg.Spans.RecordChild(t.span, "worker.wait", ready, info.WorkerWait, nil, "")
		}
		if t.op != opStats {
			decide = s.cfg.Spans.StartChild(t.span, "decide")
		}
	}
	bridged := decide != nil && s.sched == nil
	if bridged {
		s.cfg.SpanBridge.SetActive(decide)
	}
	var res taskResult
	switch t.op {
	case opCheck:
		res.rep, res.err = s.chk.Check(t.u)
	case opApply:
		res.rep, res.err = s.chk.Apply(t.u)
	case opBatch:
		res.batch, res.err = s.runBatch(t.us, t.atomic)
	case opStats:
		res.stats = s.chk.Stats()
	}
	if bridged {
		s.cfg.SpanBridge.SetActive(nil)
	}
	if decide != nil {
		if res.err != nil {
			decide.SetError(res.err.Error())
		}
		decide.End()
	}
	dur := time.Since(start)
	s.observeEWMA(dur)
	if t.op != opStats {
		s.logTask(t, res, dur)
	}
	s.answer(t, res)
}

// answer replies to an admitted request and gives its place back.
func (s *Server) answer(t *task, res taskResult) {
	s.admitted.Add(-1)
	t.reply <- res
}

// observeEWMA folds one task's service time into the Retry-After
// estimate (α = 1/8). CAS because scheduled tasks observe concurrently;
// one apply worker is just the uncontended case.
func (s *Server) observeEWMA(dur time.Duration) {
	for {
		prev := s.ewmaNanos.Load()
		next := prev - prev/8 + int64(dur)/8
		if s.ewmaNanos.CompareAndSwap(prev, next) {
			return
		}
	}
}

// runBatch runs a batch in one task: atomically through the backend's
// ApplyBatch, or update by update until the first error.
func (s *Server) runBatch(us []store.Update, atomic bool) (BatchOutcome, error) {
	if atomic {
		br, err := s.chk.ApplyBatch(us)
		out := BatchOutcome{Reports: br.Reports, Atomic: true, FailedAt: br.FailedAt}
		if err == nil && br.Applied {
			out.Applied = len(us)
		}
		return out, err
	}
	reports := make([]core.Report, len(us))
	errs := make([]error, len(us))
	for i, u := range us {
		if reports[i], errs[i] = s.chk.Apply(u); errs[i] != nil {
			break
		}
	}
	return batchOutcome(reports, errs)
}

// batchOutcome assembles a non-atomic batch's outcome in request order:
// the reports up to the first error, and that error.
func batchOutcome(reports []core.Report, errs []error) (BatchOutcome, error) {
	out := BatchOutcome{Reports: reports, FailedAt: -1}
	for i, rep := range reports {
		if errs[i] != nil {
			out.Reports = reports[:i]
			return out, errs[i]
		}
		if rep.Applied {
			out.Applied++
		}
	}
	return out, nil
}

// Close drains the server: no new request is admitted (ErrDraining),
// every already-queued request is answered, then the decision log is
// flushed and closed. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		s.closeOnce.Do(func() { close(s.queue) })
	}
	<-s.workerDone
	if s.dlog != nil {
		s.dlog.close()
	}
}

// Draining reports whether Close has begun.
func (s *Server) Draining() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.draining
}

// bucket is one client's token bucket; tokens refill continuously at
// Config.RatePerClient up to Config.Burst.
type bucket struct {
	tokens float64
	last   time.Time
}

// refill returns the bucket's tokens at now.
func (b *bucket) refill(now time.Time, rate, burst float64) float64 {
	return math.Min(burst, b.tokens+now.Sub(b.last).Seconds()*rate)
}

// admit charges one token from the client's bucket, or returns a
// BusyError advising when the next token lands. A bucket that has
// refilled to Burst admits exactly as a new one would, so before a new
// client's bucket goes in, once the map has doubled since the last
// sweep, the refilled ones are dropped: the map holds the clients still
// being held back, plus at most as many again, at amortised O(1) per
// admission.
func (s *Server) admit(client string) error {
	rate := s.cfg.RatePerClient
	if rate <= 0 {
		return nil
	}
	burst := s.cfg.burst()
	now := s.clock()
	s.limMu.Lock()
	defer s.limMu.Unlock()
	b := s.buckets[client]
	if b == nil {
		if len(s.buckets) >= s.sweepAt {
			for id, o := range s.buckets {
				if o.refill(now, rate, burst) >= burst {
					delete(s.buckets, id)
				}
			}
			s.sweepAt = 2 * len(s.buckets)
		}
		b = &bucket{tokens: burst, last: now}
		s.buckets[client] = b
	}
	b.tokens = b.refill(now, rate, burst)
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return nil
	}
	wait := time.Duration((1 - b.tokens) / rate * float64(time.Second))
	return &BusyError{Reason: ReasonRateLimited, RetryAfter: wait}
}

// Stats is the server-level accounting snapshot (the checker's own
// statistics travel separately, through CheckerStats).
type Stats struct {
	Requests         map[string]int64 `json:"requests"`
	Rejections       map[string]int64 `json:"rejections"`
	QueueDepth       int              `json:"queue_depth"`
	DecisionLogDrops int64            `json:"decision_log_drops"`
	Draining         bool             `json:"draining"`
	// ApplyWorkers is how many requests may compute at once. At 1 no
	// scheduler runs, and the sched_* counters stay zero.
	ApplyWorkers        int   `json:"apply_workers"`
	SchedTasks          int64 `json:"sched_tasks"`
	SchedConflictStalls int64 `json:"sched_conflict_stalls"`
	SchedInflight       int   `json:"sched_inflight"`
	// Shard* surface the backend's scale-out wire accounting when it
	// implements ShardStatser (zero otherwise).
	ShardRouted  int `json:"shard_routed,omitempty"`
	ShardScatter int `json:"shard_scatter,omitempty"`
}

// ShardStatser is an optional Backend refinement for scale-out
// deployments: how many sharded-relation reads went to a single
// owning shard and how many scatter-gathered every shard.
// netdist.ServeBackend implements it; single-checker backends simply
// don't. The third result always reads 0 and is ignored; it stays only
// because the benchmark's traced backend forwards the three-result form.
type ShardStatser interface {
	ShardStats() (routed, scatter, _ int)
}

// Stats snapshots the server-level counters without touching the queue.
func (s *Server) Stats() Stats {
	st := Stats{
		Requests:     map[string]int64{},
		Rejections:   map[string]int64{},
		QueueDepth:   len(s.queue),
		Draining:     s.Draining(),
		ApplyWorkers: s.applyWorkers,
	}
	if s.sched != nil {
		ss := s.sched.Stats()
		st.SchedTasks = ss.Tasks
		st.SchedConflictStalls = ss.ConflictStalls
		st.SchedInflight = ss.Inflight
	}
	if sh, ok := s.chk.(ShardStatser); ok {
		st.ShardRouted, st.ShardScatter, _ = sh.ShardStats()
	}
	for op := opCheck; op <= opStats; op++ {
		st.Requests[op.endpoint()] = s.requests[op].Load()
	}
	for reason, n := range s.rejections {
		st.Rejections[reason] = n.Load()
	}
	if s.dlog != nil {
		st.DecisionLogDrops = s.dlog.drops.Load()
	}
	return st
}

// DecisionLogDrops returns the dropped-record count (0 without a log).
func (s *Server) DecisionLogDrops() int64 {
	if s.dlog == nil {
		return 0
	}
	return s.dlog.drops.Load()
}

// logTask emits decision-log records for a finished task: one per
// update, batches included.
func (s *Server) logTask(t *task, res taskResult, dur time.Duration) {
	if s.dlog == nil {
		return
	}
	ts := s.clock().UTC().Format(time.RFC3339Nano)
	emit := func(u store.Update, rep core.Report, err error) {
		rec := logRecord{
			Time:      ts,
			Client:    t.client,
			TraceID:   t.traceID,
			Op:        t.op.endpoint(),
			Update:    u.String(),
			LatencyUS: dur.Microseconds(),
		}
		if err != nil {
			rec.Err = err.Error()
		} else {
			rec.Applied = rep.Applied
			rec.Violations = rep.Violations()
			for _, w := range rep.Witnesses {
				if rec.Witnesses == nil {
					rec.Witnesses = map[string]string{}
				}
				rec.Witnesses[w.Constraint] = u.Relation + w.Tuple.String()
			}
		}
		if !s.dlog.emit(rec) && s.met != nil {
			s.met.logDrops.Inc()
		}
	}
	switch t.op {
	case opCheck, opApply:
		emit(t.u, res.rep, res.err)
	case opBatch:
		for i, rep := range res.batch.Reports {
			emit(t.us[i], rep, nil)
		}
		if res.err != nil && len(res.batch.Reports) < len(t.us) {
			emit(t.us[len(res.batch.Reports)], core.Report{}, res.err)
		}
	}
}

// logRecord is one decision-log line (JSONL). TraceID joins the line
// against the stored trace (and the client's own spans) whenever the
// request carried or minted a trace id.
type logRecord struct {
	Time       string   `json:"ts"`
	Client     string   `json:"client,omitempty"`
	TraceID    string   `json:"trace_id,omitempty"`
	Op         string   `json:"op"`
	Update     string   `json:"update"`
	Applied    bool     `json:"applied"`
	Violations []string `json:"violations,omitempty"`
	// Witnesses names, per constraint decided by a local certificate
	// (core.Report.Witnesses), the stored tuple that certified it.
	Witnesses map[string]string `json:"witnesses,omitempty"`
	LatencyUS int64             `json:"latency_us"`
	Err       string            `json:"error,omitempty"`
}

// decisionLog is the buffered JSONL sink: emit never blocks (drops are
// counted), the writer goroutine owns the io.Writer, close flushes.
type decisionLog struct {
	ch    chan logRecord
	drops atomic.Int64
	done  chan struct{}
}

func newDecisionLog(w io.Writer, depth int) *decisionLog {
	if depth <= 0 {
		depth = 1024
	}
	l := &decisionLog{ch: make(chan logRecord, depth), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		enc := json.NewEncoder(w)
		for rec := range l.ch {
			// A failing sink cannot stall the worker; the error surfaces
			// as missing lines, which the drop counter does not cover —
			// operators watch the sink's own health for that.
			_ = enc.Encode(rec)
		}
	}()
	return l
}

func (l *decisionLog) emit(rec logRecord) bool {
	select {
	case l.ch <- rec:
		return true
	default:
		l.drops.Add(1)
		return false
	}
}

func (l *decisionLog) close() {
	close(l.ch)
	<-l.done
}

// serveMetrics holds the cc_serve_* handles.
type serveMetrics struct {
	requests   *obs.CounterVec
	latency    *obs.HistogramVec
	queueDepth *obs.Gauge
	rejections *obs.CounterVec
	logDrops   *obs.Counter
}

func newServeMetrics(reg *obs.Registry) *serveMetrics {
	return &serveMetrics{
		requests: reg.CounterVec("cc_serve_requests_total",
			"Requests admitted to the decision queue, by endpoint.", "endpoint"),
		latency: reg.HistogramVec("cc_serve_request_seconds",
			"Request latency from admission to reply (queue wait included), by endpoint and verdict.",
			nil, "endpoint", "verdict"),
		queueDepth: reg.Gauge("cc_serve_queue_depth",
			"Requests currently queued for the decision worker."),
		rejections: reg.CounterVec("cc_serve_admission_rejections_total",
			"Requests shed before queueing, by reason (queue_full, rate_limited, draining).", "reason"),
		logDrops: reg.Counter("cc_serve_decision_log_drops_total",
			"Decision-log records dropped because the sink fell behind."),
	}
}
