// Command ccserved is the decision server: a long-lived HTTP/JSON
// daemon exposing the staged checking pipeline to online traffic.
//
// Usage:
//
//	ccserved -listen :8080 -constraints c.dl [-data d.dl] [-local emp]
//	         [-queue 1024] [-rate 0 -burst 0] [-apply-workers 8]
//	         [-decision-log d.jsonl] [-sites host:port=rel1,rel2]...
//	         [-trace-sample 0.1]
//
// Endpoints (one listener serves them all):
//
//	POST /v1/check   decide an update without applying it
//	POST /v1/apply   decide and, when admitted, apply
//	POST /v1/batch   a sequence in one request; "atomic" all-or-nothing
//	GET  /v1/stats   pipeline + server statistics
//	/metrics /healthz /readyz /debug/vars /debug/pprof /debug/traces
//
// Requests carry updates as {"op":"insert","relation":"r","tuple":[1,"x"]};
// the per-client admission buckets key on the X-Client-ID header. A full
// server (-queue requests already waiting) answers 429 with Retry-After;
// on SIGINT/SIGTERM the daemon flips /readyz to 503 (load balancers
// drain it), stops accepting, answers what it already admitted, flushes
// the decision log and exits.
//
// With -sites flags (repeatable, the ccheck/ccsited spec syntax) the
// daemon fronts a multi-site netdist system: decisions run against a
// local mirror, what a decision reads of remote relations is refreshed before it, and
// admitted writes propagate to the owning ccsited.
//
// Distributed tracing is on by default at -trace-sample 0.1: sampled
// requests (and any request carrying a sampled traceparent header)
// become traces — HTTP root, wait for the apply turn, decision, checker
// phases, and per-site RPCs with site-side spans echoed back — stored in
// a tail-sampling ring served at /debug/traces, exportable as OTLP JSON
// on shutdown with -trace-otlp. -trace-sample 0 turns spans off.
//
// Constraint files hold blank-line-separated constraint programs (each
// defines panic), data files hold facts — the same formats ccheck reads.
//
// -apply-workers N (default 1): each admitted request is served on its
// own goroutine. At N = 1 requests are decided one at a time, each when
// it gets the server's single turn, in the order they reach it. Above
// that each hands itself to a conflict-aware scheduler: non-conflicting
// admitted updates are decided concurrently, at most N of them computing
// at once — with -sites an update that may wait on a site does not
// count, and -queue bounds those — while conflicting ones keep admission
// order, so verdicts and state match N = 1 exactly (see DESIGN.md,
// "Conflict-aware apply scheduling"). With -sites N also says how a
// coordinator decision sends its wire reads and writes — the refreshes a
// batch's members need and the writes it publishes: one at a time, in
// member order, at 1; all at once above it. The members themselves are
// decided in order either way.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/netdist"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/serve"
	"repro/internal/store"
)

// config is everything main parses from flags.
type config struct {
	listen       string
	constraints  string
	data         string
	local        string
	queue        int
	rate         float64
	burst        float64
	maxBatch     int
	logPath      string
	logDepth     int
	applyWorkers int
	verbose      bool

	sites       []string
	shards      []string
	siteTimeout time.Duration
	siteRetries int

	traceSample float64
	traceStore  int
	traceOTLP   string
}

// appendFlag collects a repeatable string flag (-sites, -shard).
type appendFlag struct{ dst *[]string }

func (f appendFlag) String() string { return "" }
func (f appendFlag) Set(v string) error {
	*f.dst = append(*f.dst, v)
	return nil
}

func main() {
	var cfg config
	flag.StringVar(&cfg.listen, "listen", ":8080", "address to serve on")
	flag.StringVar(&cfg.constraints, "constraints", "", "path to constraint programs (blank-line separated; required)")
	flag.StringVar(&cfg.data, "data", "", "path to initial facts")
	flag.StringVar(&cfg.local, "local", "", "comma-separated local relations (default: all local)")
	flag.IntVar(&cfg.queue, "queue", 0, "requests that may wait beyond those being served (0: 1024); past it the answer is 429")
	flag.Float64Var(&cfg.rate, "rate", 0, "per-client admission rate in requests/second (0: unlimited)")
	flag.Float64Var(&cfg.burst, "burst", 0, "per-client token-bucket burst (0: max(rate,1))")
	flag.IntVar(&cfg.maxBatch, "maxbatch", 0, "updates accepted per batch request (0: 1024)")
	flag.StringVar(&cfg.logPath, "decision-log", "", "append one JSON line per decision to this file (empty: off)")
	flag.IntVar(&cfg.logDepth, "decision-log-depth", 0, "decision-log buffer in records (0: 1024); overflow drops and counts")
	flag.IntVar(&cfg.applyWorkers, "apply-workers", 1, "updates that may compute at once (1: decided one at a time, in turn; >1: on a conflict-aware scheduler, waits on a site not counted); with -sites, >1 also sends a batch's site reads and writes at once")
	flag.BoolVar(&cfg.verbose, "v", false, "log the served constraints at startup")
	flag.Var(appendFlag{&cfg.sites}, "sites", "remote site spec host:port=rel1,rel2 (repeatable; fronts a netdist system)")
	flag.Var(appendFlag{&cfg.shards}, "shard", "hash-sharded relation spec rel@keycol=site1,site2,... (repeatable)")
	flag.DurationVar(&cfg.siteTimeout, "site-timeout", 2*time.Second, "per-request deadline for -sites round trips")
	flag.IntVar(&cfg.siteRetries, "site-retries", 0, "retries per failed site round trip (0: default of 3, negative: none)")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 0.1, "head-sampling probability for distributed traces (0 disables spans)")
	flag.IntVar(&cfg.traceStore, "trace-store", 512, "completed traces retained in memory (plus the tail-kept slow/violation ones)")
	flag.StringVar(&cfg.traceOTLP, "trace-otlp", "", "write retained traces to this file as OTLP JSON on shutdown")
	flag.Parse()

	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "ccserved:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	var logSink io.WriteCloser
	if cfg.logPath != "" {
		f, err := os.OpenFile(cfg.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("-decision-log: %w", err)
		}
		logSink = f
		defer f.Close()
	}
	srv, chk, spans, err := setup(cfg, logSink)
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", cfg.listen)
	if err != nil {
		return err
	}
	start := time.Now()
	// /readyz flips to 503 the moment the drain starts — before the
	// listener stops accepting — so load balancers stop routing here
	// while in-flight requests still complete.
	var notReady atomic.Bool
	ready := func() bool { return !notReady.Load() && !srv.Draining() }
	httpSrv := &http.Server{Handler: srv.Handler("ccserved", func() map[string]any {
		return map[string]any{
			"uptime_seconds": int64(time.Since(start).Seconds()),
			"constraints":    chk.Constraints(),
			"queue_depth":    srv.Stats().QueueDepth,
			"draining":       srv.Draining(),
		}
	}, ready)}
	fmt.Printf("ccserved: serving on http://%s/v1/check\n", l.Addr())
	if aw := srv.ApplyWorkers(); aw > 1 {
		fmt.Printf("ccserved: conflict-aware scheduler, %d apply workers\n", aw)
	} else if cfg.applyWorkers > 1 {
		fmt.Println("ccserved: -apply-workers ignored: backend refuses concurrent applies, one apply worker")
	}
	if cfg.verbose {
		for _, name := range chk.Constraints() {
			fmt.Printf("ccserved:   constraint %s\n", name)
		}
	}
	done := make(chan os.Signal, 1)
	signal.Notify(done, syscall.SIGINT, syscall.SIGTERM)
	go httpSrv.Serve(l)
	<-done
	notReady.Store(true)
	// Graceful drain: stop accepting connections and wait for in-flight
	// handlers (each answered once its request is decided), then drain
	// the server and flush the decision log.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "ccserved: shutdown:", err)
	}
	srv.Close()
	if cfg.traceOTLP != "" && spans != nil {
		if err := exportOTLP(cfg.traceOTLP, spans.Store()); err != nil {
			fmt.Fprintln(os.Stderr, "ccserved: trace export:", err)
		}
	}
	fmt.Print(renderStats(srv.Stats()))
	return nil
}

// exportOTLP writes the store's retained traces as one OTLP-JSON file.
func exportOTLP(path string, store *obs.TraceStore) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteOTLP(f, store.Traces()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// setup builds the backend (direct checker, or netdist coordinator when
// -sites is given) and the server from the config. Split from run for
// testing. The returned tracer is nil when -trace-sample is 0.
func setup(cfg config, logSink io.Writer) (*serve.Server, *core.Checker, *obs.SpanTracer, error) {
	if cfg.constraints == "" {
		return nil, nil, nil, fmt.Errorf("-constraints is required")
	}
	db := store.New()
	if cfg.data != "" {
		src, err := os.ReadFile(cfg.data)
		if err != nil {
			return nil, nil, nil, err
		}
		facts, err := parser.ParseProgram(string(src))
		if err != nil {
			return nil, nil, nil, fmt.Errorf("data: %w", err)
		}
		if err := db.LoadFacts(facts); err != nil {
			return nil, nil, nil, err
		}
	}
	reg := obs.NewRegistry()
	var spans *obs.SpanTracer
	var bridge *obs.SpanBridge
	if cfg.traceSample > 0 {
		spans = obs.NewSpanTracer("ccserved", obs.NewTraceStore(cfg.traceStore), cfg.traceSample)
		bridge = obs.NewSpanBridge(spans)
	}
	opts := core.Options{Metrics: reg}
	if bridge != nil {
		opts.Tracer = bridge
	}
	if cfg.local != "" {
		for _, r := range strings.Split(cfg.local, ",") {
			r = strings.TrimSpace(r)
			if r == "" {
				return nil, nil, nil, fmt.Errorf("-local has an empty name in %q", cfg.local)
			}
			opts.LocalRelations = append(opts.LocalRelations, r)
		}
	}
	var backend serve.Backend
	var chk *core.Checker
	if len(cfg.sites) > 0 || len(cfg.shards) > 0 {
		place, err := buildPlacement(cfg)
		if err != nil {
			return nil, nil, nil, err
		}
		co, err := netdist.NewPlaced(db, place, netdist.NewTCPTransport(), netdist.Options{
			Checker:      opts,
			Timeout:      cfg.siteTimeout,
			Retries:      cfg.siteRetries,
			ApplyWorkers: cfg.applyWorkers,
			Metrics:      reg,
			Spans:        bridge,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		chk = co.Checker
		backend = netdist.ServeBackend{Co: co}
	} else {
		chk = core.New(db, opts)
		backend = chk
	}
	csrc, err := os.ReadFile(cfg.constraints)
	if err != nil {
		return nil, nil, nil, err
	}
	for i, block := range splitBlocks(string(csrc)) {
		name := fmt.Sprintf("c%d", i+1)
		if err := chk.AddConstraintSource(name, block); err != nil {
			return nil, nil, nil, fmt.Errorf("constraint %s: %w", name, err)
		}
	}
	srv := serve.New(backend, serve.Config{
		QueueDepth:       cfg.queue,
		RatePerClient:    cfg.rate,
		Burst:            cfg.burst,
		MaxBatch:         cfg.maxBatch,
		ApplyWorkers:     cfg.applyWorkers,
		DecisionLog:      logSink,
		DecisionLogDepth: cfg.logDepth,
		Metrics:          reg,
		Spans:            spans,
		SpanBridge:       bridge,
	})
	return srv, chk, spans, nil
}

// buildPlacement combines -sites (whole-relation ownership) and -shard
// (hash-partitioned relations) into one placement. A relation may be
// placed by -sites or -shard but not both.
func buildPlacement(cfg config) (netdist.Placement, error) {
	place := netdist.Placement{}
	claimed := map[string]string{}
	for _, s := range cfg.sites {
		spec, err := netdist.ParseSiteSpec(s)
		if err != nil {
			return nil, err
		}
		for _, rel := range spec.Relations {
			if by, dup := claimed[rel]; dup {
				return nil, fmt.Errorf("relation %s placed twice (%s and %s)", rel, by, spec.Site)
			}
			claimed[rel] = spec.Site
			place[rel] = netdist.RelPlacement{Shards: []netdist.ShardSpec{{Leader: spec.Site}}}
		}
	}
	for _, s := range cfg.shards {
		rel, rp, err := netdist.ParseShardSpec(s)
		if err != nil {
			return nil, err
		}
		if by, dup := claimed[rel]; dup {
			return nil, fmt.Errorf("relation %s placed twice (%s and -shard %s)", rel, by, s)
		}
		claimed[rel] = "-shard " + s
		place[rel] = rp
	}
	return place, nil
}

// splitBlocks splits a constraint file into blank-line-separated
// programs (the ccheck file format).
func splitBlocks(src string) []string {
	var out []string
	for _, block := range strings.Split(src, "\n\n") {
		if strings.TrimSpace(block) != "" {
			out = append(out, block)
		}
	}
	return out
}

// renderStats formats the daemon's accounting for shutdown.
func renderStats(st serve.Stats) string {
	var sb strings.Builder
	endpoints := make([]string, 0, len(st.Requests))
	var total int64
	for e, n := range st.Requests {
		endpoints = append(endpoints, e)
		total += n
	}
	sort.Strings(endpoints)
	fmt.Fprintf(&sb, "ccserved: %d requests served\n", total)
	for _, e := range endpoints {
		fmt.Fprintf(&sb, "ccserved:   %-6s %d\n", e, st.Requests[e])
	}
	reasons := make([]string, 0, len(st.Rejections))
	for r := range st.Rejections {
		reasons = append(reasons, r)
	}
	sort.Strings(reasons)
	for _, r := range reasons {
		if st.Rejections[r] > 0 {
			fmt.Fprintf(&sb, "ccserved:   rejected %s: %d\n", r, st.Rejections[r])
		}
	}
	if st.DecisionLogDrops > 0 {
		fmt.Fprintf(&sb, "ccserved:   decision-log drops: %d\n", st.DecisionLogDrops)
	}
	if st.ApplyWorkers > 1 {
		fmt.Fprintf(&sb, "ccserved:   apply workers %d: %d scheduled, %d conflict stalls\n",
			st.ApplyWorkers, st.SchedTasks, st.SchedConflictStalls)
	}
	return sb.String()
}
