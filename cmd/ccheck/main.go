// Command ccheck loads constraints and data, applies an update script
// through the staged partial-information pipeline, and reports — per
// update — which phase decided each constraint and at what data cost.
//
// Usage:
//
//	ccheck -constraints c.dl -data d.dl -updates u.txt [-local emp,dept]
//	ccheck -constraints c.dl -data d.dl -updates u.txt \
//	       -local emp -sites 127.0.0.1:7070=dept,salRange
//
// Constraint files hold one or more constraint programs separated by
// blank lines (each must define panic). Data files hold facts. Update
// scripts hold one update per line: +emp(jones,shoe,50) or -dept(toy);
// '%' comments and blank lines are ignored.
//
// Without -sites the "remote" relations are simulated by the dist cost
// model. Each -sites flag (repeatable) names a ccsited daemon and the
// relations it owns; ccheck then runs the netdist coordinator, fetching
// those relations over TCP during global phases, and the report shows
// measured wire traffic instead of modeled cost.
//
// Observability: -trace prints a per-update decision trace (every phase
// attempt, cache hits, remote relations consulted); -trace-out file
// appends the same events as JSON lines; -stats-json file dumps the
// final pipeline statistics — per-phase decision counts, cache hit rate,
// and the deployment's data-access accounting — as JSON. -spans file
// additionally records every update as a distributed trace (a root span
// with phase children and, under -sites, per-RPC and site-side spans)
// and writes the collected traces as OTLP-JSON at exit.
//
// Global evaluations use hash-index probes and range steps with
// bound-first join planning, compiled once per constraint when it is
// loaded; -noindex joins in textual order over whole-relation scans (no
// index built or probed), for A/B comparison. Eligible (constraint,
// update-pattern) pairs are additionally served by compiled residual
// checks, one per pattern, compiled when the constraints are loaded (see
// internal/residual and BenchmarkApplyResidual); -noresidual forces every
// constraint through the staged pipeline instead. -repeat N replays the
// update script N times with counters reset between runs, so the reported
// statistics describe a warm run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/netdist"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
)

// config is everything main parses from flags; run consumes it.
type config struct {
	constraints string
	data        string
	updates     string
	local       string
	noindex     bool
	noresidual  bool
	repeat      int
	verbose     bool
	save        string
	sites       []netdist.SiteSpec
	timeout     time.Duration
	retries     int
	trace       bool
	traceOut    string
	statsJSON   string
	spansOut    string
}

// flags is the raw flag surface buildConfig validates into a config.
type flags struct {
	constraints string
	data        string
	updates     string
	local       string
	noindex     bool
	noresidual  bool
	repeat      int
	verbose     bool
	save        string
	timeout     time.Duration
	retries     int
	sites       []string
	trace       bool
	traceOut    string
	statsJSON   string
	spansOut    string
}

// siteFlags collects repeated -sites values.
type siteFlags []string

func (s *siteFlags) String() string { return strings.Join(*s, " ") }
func (s *siteFlags) Set(v string) error {
	*s = append(*s, v)
	return nil
}

func main() {
	var (
		constraintsPath = flag.String("constraints", "", "path to constraint programs (blank-line separated)")
		dataPath        = flag.String("data", "", "path to initial facts")
		updatesPath     = flag.String("updates", "", "path to update script (+rel(...) / -rel(...) per line)")
		localList       = flag.String("local", "", "comma-separated local relations (default: all local)")
		noindex         = flag.Bool("noindex", false, "join in textual order over whole-relation scans: no index probe, range step or bound-first planning (A/B escape hatch)")
		noresidual      = flag.Bool("noresidual", false, "disable residual check compilation: run every constraint through the staged phase pipeline (A/B escape hatch)")
		repeat          = flag.Int("repeat", 1, "apply the update script this many times; checker counters reset between runs so the final statistics describe the last (warm-cache) run")
		verbose         = flag.Bool("v", false, "print per-update decisions")
		savePath        = flag.String("save", "", "write the final database to this file as facts")
		timeout         = flag.Duration("timeout", 2*time.Second, "per-request deadline for -sites round trips")
		retries         = flag.Int("retries", 3, "retry budget per -sites round trip")
		trace           = flag.Bool("trace", false, "print the per-update decision trace (which phase decided each constraint and why)")
		traceOut        = flag.String("trace-out", "", "append the decision trace to this file as JSON lines")
		statsJSON       = flag.String("stats-json", "", "write the final pipeline statistics to this file as JSON")
		spansOut        = flag.String("spans", "", "record every update as a distributed trace and write OTLP-JSON here at exit")
		sites           siteFlags
	)
	flag.Var(&sites, "sites", "site daemon spec host:port=rel1,rel2 (repeatable)")
	flag.Parse()
	cfg, err := buildConfig(flags{
		constraints: *constraintsPath, data: *dataPath, updates: *updatesPath,
		local: *localList, noindex: *noindex,
		noresidual: *noresidual, repeat: *repeat,
		verbose: *verbose, save: *savePath, timeout: *timeout, retries: *retries,
		sites: sites, trace: *trace, traceOut: *traceOut, statsJSON: *statsJSON,
		spansOut: *spansOut,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccheck:", err)
		flag.Usage()
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "ccheck:", err)
		os.Exit(1)
	}
}

// buildConfig validates the raw flag values into a runnable config: the
// required paths must be present, every -sites spec must parse, and no
// relation may be claimed twice or listed both local and remote.
func buildConfig(f flags) (config, error) {
	cfg := config{
		constraints: f.constraints, data: f.data, updates: f.updates, local: f.local,
		noindex: f.noindex, noresidual: f.noresidual, repeat: f.repeat,
		verbose: f.verbose, save: f.save, timeout: f.timeout, retries: f.retries,
		trace: f.trace, traceOut: f.traceOut, statsJSON: f.statsJSON,
		spansOut: f.spansOut,
	}
	if f.constraints == "" || f.updates == "" {
		return cfg, fmt.Errorf("-constraints and -updates are required")
	}
	// The zero value (flags built programmatically) means the default of
	// one run; an explicit non-positive -repeat is an error.
	if f.repeat < 0 {
		return cfg, fmt.Errorf("-repeat must be at least 1 (got %d)", f.repeat)
	}
	if f.repeat == 0 {
		cfg.repeat = 1
	}
	claimed := map[string]string{}
	for _, s := range f.sites {
		spec, err := netdist.ParseSiteSpec(s)
		if err != nil {
			return cfg, err
		}
		for _, rel := range spec.Relations {
			if other, ok := claimed[rel]; ok {
				return cfg, fmt.Errorf("-sites: relation %s claimed by both %s and %s", rel, other, spec.Site)
			}
			claimed[rel] = spec.Site
		}
		cfg.sites = append(cfg.sites, spec)
	}
	for _, rel := range splitList(f.local) {
		if site, ok := claimed[rel]; ok {
			return cfg, fmt.Errorf("relation %s is both -local and served by %s", rel, site)
		}
	}
	return cfg, nil
}

// splitList splits a comma-separated flag, trimming blanks.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// applier is the surface shared by dist.System and netdist.Coordinator.
type applier interface {
	Apply(u store.Update) (core.Report, error)
	Report() string
}

func run(cfg config) error {
	db := store.New()
	if cfg.data != "" {
		src, err := os.ReadFile(cfg.data)
		if err != nil {
			return err
		}
		facts, err := parser.ParseProgram(string(src))
		if err != nil {
			return fmt.Errorf("data: %w", err)
		}
		if err := db.LoadFacts(facts); err != nil {
			return err
		}
	}
	opts := core.Options{
		LocalRelations:  splitList(cfg.local),
		DisableIndexes:  cfg.noindex,
		DisableResidual: cfg.noresidual,
	}

	// Decision tracing: -trace renders to stdout as updates run,
	// -trace-out appends the same events as JSON lines; both may be on.
	var tracers []obs.Tracer
	if cfg.trace {
		tracers = append(tracers, obs.NewTextTracer(os.Stdout))
	}
	var jsonl *obs.JSONLTracer
	if cfg.traceOut != "" {
		f, err := os.OpenFile(cfg.traceOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
		defer f.Close()
		jsonl = obs.NewJSONLTracer(f)
		tracers = append(tracers, jsonl)
	}
	// -spans: every update becomes a sampled trace whose phase events the
	// bridge converts into child spans; under -sites the coordinator adds
	// per-RPC spans and sites echo their side back. Dumped as OTLP-JSON
	// at exit.
	var spans *obs.SpanTracer
	var bridge *obs.SpanBridge
	if cfg.spansOut != "" {
		spans = obs.NewSpanTracer("ccheck", obs.NewTraceStore(1024), 1)
		bridge = obs.NewSpanBridge(spans)
		tracers = append(tracers, bridge)
	}
	switch len(tracers) {
	case 0:
	case 1:
		opts.Tracer = tracers[0]
	default:
		opts.Tracer = obs.MultiTracer(tracers...)
	}

	var sys applier
	var checker *core.Checker
	if len(cfg.sites) > 0 {
		co, err := netdist.New(db, cfg.sites, netdist.NewTCPTransport(), netdist.Options{
			Checker: opts,
			Timeout: cfg.timeout,
			Retries: cfg.retries,
			Spans:   bridge,
		})
		if err != nil {
			return err
		}
		sys, checker = co, co.Checker
	} else {
		ds := dist.NewWithOptions(db, opts, dist.DefaultCost)
		sys, checker = ds, ds.Checker
	}

	csrc, err := os.ReadFile(cfg.constraints)
	if err != nil {
		return err
	}
	for i, block := range splitBlocks(string(csrc)) {
		name := fmt.Sprintf("c%d", i+1)
		if err := checker.AddConstraintSource(name, block); err != nil {
			return fmt.Errorf("constraint %s: %w", name, err)
		}
	}
	db.ResetReads()

	usrc, err := os.ReadFile(cfg.updates)
	if err != nil {
		return err
	}
	updates, err := ParseUpdates(string(usrc))
	if err != nil {
		return err
	}
	for run := 0; run < cfg.repeat; run++ {
		if run > 0 {
			// Each -repeat run reports its own rates: zero the checker's
			// counter families (what it compiled and keeps stays —
			// measuring a warm checker is the point) and the store's read
			// accounting.
			checker.ResetStats()
			db.ResetReads()
		}
		for _, u := range updates {
			var sp *obs.Span
			if spans != nil {
				sp = spans.StartRoot("ccheck.apply", obs.SpanContext{})
				sp.SetAttr("update", fmt.Sprint(u))
				bridge.SetActive(sp)
			}
			rep, err := sys.Apply(u)
			if spans != nil {
				bridge.SetActive(nil)
				if err != nil {
					sp.SetError(err.Error())
				}
				sp.End()
			}
			if err != nil {
				return fmt.Errorf("update %v: %w", u, err)
			}
			if cfg.verbose && run == cfg.repeat-1 {
				status := "applied"
				if !rep.Applied {
					status = "REJECTED (" + strings.Join(rep.Violations(), ",") + ")"
				}
				fmt.Printf("%-30s %s\n", u, status)
				for _, d := range rep.Decisions {
					fmt.Printf("    %-10s decided by %s: %s", d.Constraint, d.Phase, d.Verdict)
					if w := rep.Witness(d.Constraint); w != nil {
						fmt.Printf(" (certified by %s%s)", u.Relation, w)
					}
					fmt.Println()
				}
			}
		}
	}
	fmt.Print(sys.Report())
	if jsonl != nil {
		if err := jsonl.Err(); err != nil {
			return fmt.Errorf("trace-out: %w", err)
		}
	}
	if cfg.statsJSON != "" {
		if err := writeStatsJSON(cfg.statsJSON, checker, sys); err != nil {
			return fmt.Errorf("stats-json: %w", err)
		}
	}
	if cfg.spansOut != "" {
		f, err := os.Create(cfg.spansOut)
		if err != nil {
			return fmt.Errorf("spans: %w", err)
		}
		traces := spans.Store().Traces()
		if err := obs.WriteOTLP(f, traces); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
		fmt.Printf("wrote %d traces (OTLP-JSON) to %s\n", len(traces), cfg.spansOut)
	}
	if cfg.save != "" {
		if err := os.WriteFile(cfg.save, []byte(db.Dump()), 0o644); err != nil {
			return fmt.Errorf("save: %w", err)
		}
	}
	return nil
}

// phaseNames converts a by-phase counter map to phase-name keys for JSON.
func phaseNames(m map[core.Phase]int) map[string]int {
	out := make(map[string]int, len(m))
	for p, n := range m {
		out[p.String()] = n
	}
	return out
}

// writeStatsJSON dumps the checker's and the deployment's final
// statistics as one JSON document: the staged pipeline's per-phase
// decision counts and cache effectiveness, plus either the dist cost
// model's entries or the netdist coordinator's measured wire accounting.
func writeStatsJSON(path string, checker *core.Checker, sys applier) error {
	cs := checker.Stats()
	doc := map[string]any{
		"checker": map[string]any{
			"updates":        cs.Updates,
			"rejected":       cs.Rejected,
			"decisions":      cs.Decisions,
			"by_phase":       phaseNames(cs.ByPhase),
			"cache_hits":     cs.CacheHits,
			"cache_misses":   cs.CacheMisses,
			"cache_hit_rate": cs.CacheHitRate(),
			// Evaluation machinery counters: the relation layer's
			// process-wide index accounting (the same values the obs
			// gauges cc_index_builds/cc_index_probes sample), the
			// constraints' compiled evaluations (misses) and the
			// evaluations run from them (hits), and the intern pool size.
			"index_builds":      relation.IndexBuilds(),
			"index_probes":      relation.IndexProbes(),
			"plan_cache_hits":   cs.PlanHits,
			"plan_cache_misses": cs.PlanMisses,
			"intern_size":       relation.InternSize(),
			// Residual dispatch: the compiled checks decisions ran, the
			// constraints left to the pipeline, and the checks compiled
			// (zero under -noresidual).
			"residual_hits":     cs.ResidualHits,
			"residual_misses":   cs.ResidualMisses,
			"residual_compiled": cs.ResidualCompiled,
			// Kept fixpoints: global insert decisions served by delta
			// rounds (hits) or after a full evaluation (rebuilds), and
			// fixpoints discarded as stale (drops).
			"fixpoint_hits":     cs.FixpointHits,
			"fixpoint_rebuilds": cs.FixpointRebuilds,
			"fixpoint_drops":    cs.FixpointDrops,
		},
	}
	switch s := sys.(type) {
	case *dist.System:
		ds := s.Stats()
		doc["dist"] = map[string]any{
			"updates":         ds.Updates,
			"rejected":        ds.Rejected,
			"by_phase":        phaseNames(ds.ByPhase),
			"remote_tuples":   ds.RemoteTuples,
			"remote_trips":    ds.RemoteTrips,
			"local_tuples":    ds.LocalTuples,
			"decided_locally": ds.DecidedLocally,
			"local_certified": cs.LocalCertified,
			"cost":            ds.Cost,
		}
	case *netdist.Coordinator:
		ns := s.Stats()
		doc["net"] = map[string]any{
			"updates":             ns.Updates,
			"rejected":            ns.Rejected,
			"unavailable":         ns.Unavailable,
			"by_phase":            phaseNames(ns.ByPhase),
			"decided_locally":     ns.DecidedLocally,
			"local_certified":     cs.LocalCertified,
			"round_trips":         ns.RoundTrips,
			"retries":             ns.Retries,
			"retries_by_site":     ns.RetriesBySite,
			"unavailable_by_site": ns.UnavailableBySite,
			"wire_tuples":         ns.WireTuples,
			"net_time_seconds":    ns.NetTime.Seconds(),
			"sync_trips":          ns.SyncTrips,
			"sync_tuples":         ns.SyncTuples,
		}
	}
	body, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}

// splitBlocks splits a file into blank-line-separated program blocks.
func splitBlocks(src string) []string {
	var out []string
	for _, block := range strings.Split(src, "\n\n") {
		if strings.TrimSpace(block) != "" {
			out = append(out, block)
		}
	}
	return out
}

// ParseUpdates parses an update script: one +atom or -atom per line.
func ParseUpdates(src string) ([]store.Update, error) {
	var out []store.Update
	for ln, line := range strings.Split(src, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") || strings.HasPrefix(line, "//") {
			continue
		}
		insert := true
		switch line[0] {
		case '+':
		case '-':
			insert = false
		default:
			return nil, fmt.Errorf("line %d: update must start with + or -: %q", ln+1, line)
		}
		atom, err := parser.ParseAtom(strings.TrimSpace(line[1:]))
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		t, err := relation.TermsToTuple(atom.Args)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", ln+1, err)
		}
		u := store.Update{Insert: insert, Relation: atom.Pred, Tuple: t}
		out = append(out, u)
	}
	return out, nil
}
