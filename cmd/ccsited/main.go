// Command ccsited is the site daemon of the networked multi-site
// runtime: it loads one site's facts into a store and serves them over
// the netdist wire protocol (length-prefixed JSON frames over TCP) so a
// ccheck coordinator can reach them with -sites.
//
// Usage:
//
//	ccsited -listen :7070 -data site.dl [-relations r,s] [-v]
//
// With -relations only the named relations are visible; otherwise every
// relation in the data file is served. The daemon runs until killed; on
// SIGINT/SIGTERM it prints its accounting (requests handled, tuples
// shipped per relation) and exits.
//
// A site answers three request types: scan and fetch (the reads a
// coordinator issues when a decision needs remote data) and apply (a
// propagated write). Anything else is refused. The site owns its data:
// writes may reach its store from other clients than the coordinator,
// and the coordinator's reads see them.
//
// With -http the daemon also serves live endpoints on a second address:
// /metrics (Prometheus text format: per-op request counters and latency
// histograms, tuples shipped per relation, frame bytes), /healthz (JSON
// status with uptime and served relations), /readyz (503 once shutdown
// has begun — wired to the wire listener's liveness), /debug/vars
// (expvar, the same metrics as a JSON snapshot), /debug/pprof and
// /debug/traces (the site's side of sampled coordinator traces).
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/netdist"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/store"
)

func main() {
	var (
		listen    = flag.String("listen", ":7070", "address to serve on")
		dataPath  = flag.String("data", "", "path to this site's facts")
		relations = flag.String("relations", "", "comma-separated served relations (default: all in -data)")
		httpAddr  = flag.String("http", "", "address for live endpoints (/metrics, /healthz, /debug/pprof); empty disables")
		verbose   = flag.Bool("v", false, "log each served relation at startup")
	)
	flag.Parse()
	srv, l, err := setup(*listen, *dataPath, *relations)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccsited:", err)
		os.Exit(1)
	}
	fmt.Printf("ccsited: serving on %s\n", l.Addr())
	// Readiness tracks the wire listener: true while it accepts site
	// RPCs, flipped before it closes so load balancers stop routing.
	var live atomic.Bool
	live.Store(true)
	if *httpAddr != "" {
		hl, err := net.Listen("tcp", *httpAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ccsited: -http:", err)
			os.Exit(1)
		}
		mux := liveMux(srv, time.Now(), live.Load)
		go http.Serve(hl, mux)
		fmt.Printf("ccsited: live endpoints on http://%s/metrics\n", hl.Addr())
	}
	if *verbose {
		rels := srv.ServedRelations()
		names := make([]string, 0, len(rels))
		for n := range rels {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("ccsited:   %s/%d\n", n, rels[n])
		}
	}
	done := make(chan os.Signal, 1)
	signal.Notify(done, syscall.SIGINT, syscall.SIGTERM)
	go srv.Serve(l)
	<-done
	live.Store(false)
	l.Close()
	fmt.Print(renderStats(srv.Stats()))
}

// setup parses the site's data and opens the listener. Split from main
// for testing.
func setup(listen, dataPath, relations string) (*netdist.Server, net.Listener, error) {
	db := store.New()
	if dataPath != "" {
		src, err := os.ReadFile(dataPath)
		if err != nil {
			return nil, nil, err
		}
		facts, err := parser.ParseProgram(string(src))
		if err != nil {
			return nil, nil, fmt.Errorf("data: %w", err)
		}
		if err := db.LoadFacts(facts); err != nil {
			return nil, nil, err
		}
	}
	var rels []string
	if relations != "" {
		for _, r := range strings.Split(relations, ",") {
			r = strings.TrimSpace(r)
			if r == "" {
				return nil, nil, fmt.Errorf("-relations has an empty name in %q", relations)
			}
			rels = append(rels, r)
		}
	}
	l, err := net.Listen("tcp", listen)
	if err != nil {
		return nil, nil, err
	}
	return netdist.NewServer(db, rels), l, nil
}

// liveMux instruments the server with a fresh registry and a span
// tracer, then builds the live-endpoint mux: /metrics, /healthz (uptime
// + served relations), /readyz (wired to ready, the wire listener's
// liveness), /debug/vars, /debug/pprof and /debug/traces (the site's
// side of sampled coordinator RPCs). Split from main for testing.
func liveMux(srv *netdist.Server, start time.Time, ready func() bool) *http.ServeMux {
	reg := obs.NewRegistry()
	srv.Instrument(reg)
	spans := obs.NewSpanTracer("ccsited", obs.NewTraceStore(256), 1)
	srv.InstrumentSpans(spans)
	return obs.NewServeMux(reg, "ccsited", func() map[string]any {
		rels := srv.ServedRelations()
		names := make([]string, 0, len(rels))
		for n := range rels {
			names = append(names, n)
		}
		sort.Strings(names)
		return map[string]any{
			"uptime_seconds": int64(time.Since(start).Seconds()),
			"relations":      names,
		}
	}, ready, spans.Store())
}

// renderStats formats the daemon's accounting for shutdown.
func renderStats(st netdist.ServerStats) string {
	var sb strings.Builder
	var total int64
	types := make([]string, 0, len(st.Requests))
	for t, n := range st.Requests {
		types = append(types, t)
		total += n
	}
	sort.Strings(types)
	fmt.Fprintf(&sb, "ccsited: %d requests served (%d errors)\n", total, st.Errors)
	for _, t := range types {
		fmt.Fprintf(&sb, "ccsited:   %-6s %d\n", t, st.Requests[t])
	}
	rels := make([]string, 0, len(st.TuplesSent))
	for r := range st.TuplesSent {
		rels = append(rels, r)
	}
	sort.Strings(rels)
	for _, r := range rels {
		fmt.Fprintf(&sb, "ccsited:   %s: %d tuples shipped\n", r, st.TuplesSent[r])
	}
	return sb.String()
}
