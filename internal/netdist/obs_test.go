package netdist

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/store"
)

// metricsFixture is faultFixture with a registry attached to the
// coordinator.
func metricsFixture(t *testing.T, reg *obs.Registry) (*Coordinator, *Loopback) {
	t.Helper()
	remote := store.New()
	if _, err := remote.Insert("r", relation.Ints(10000)); err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback()
	lb.AddSite("s1", NewServer(remote, []string{"r"}))
	local := store.New()
	if _, err := local.Insert("l", relation.Ints(20, 30)); err != nil {
		t.Fatal(err)
	}
	co, err := New(local, []SiteSpec{{Site: "s1", Relations: []string{"r"}}}, lb, Options{
		Checker: core.Options{LocalRelations: []string{"l"}},
		Timeout: 50 * time.Millisecond,
		Retries: 3,
		Backoff: time.Millisecond,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Checker.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
		t.Fatal(err)
	}
	return co, lb
}

// sumPrefix adds every integer series whose key starts with prefix.
func sumPrefix(snap map[string]any, prefix string) int64 {
	var total int64
	for k, v := range snap {
		if strings.HasPrefix(k, prefix) {
			if n, ok := v.(int64); ok {
				total += n
			}
		}
	}
	return total
}

func TestCoordinatorMetricsAgreeWithStats(t *testing.T) {
	reg := obs.NewRegistry()
	co, lb := metricsFixture(t, reg)

	// A global update whose fetch is dropped twice before delivery: one
	// completed round trip, two retries.
	lb.DropNext("s1", 2)
	if rep, err := co.Apply(store.Ins("l", relation.Ints(100, 200))); err != nil || !rep.Applied {
		t.Fatalf("update with transient drops: rep=%+v err=%v", rep, err)
	}
	// A partitioned site: the update is refused, every attempt errors.
	lb.Partition("s1")
	if _, err := co.Apply(store.Ins("l", relation.Ints(300, 400))); !errors.Is(err, ErrSiteUnavailable) {
		t.Fatalf("update under partition: err=%v", err)
	}

	st := co.Stats()
	snap := reg.Snapshot()

	// The registry counts every wire event including the initial sync;
	// Stats books the sync apart.
	if got, want := sumPrefix(snap, "cc_coord_rpc_total{"), int64(st.RoundTrips+st.SyncTrips); got != want {
		t.Errorf("rpc_total = %d, stats say %d", got, want)
	}
	if got, want := snap["cc_coord_wire_tuples_total"].(int64), st.WireTuples+st.SyncTuples; got != want {
		t.Errorf("wire_tuples_total = %d, stats say %d", got, want)
	}
	if got, want := sumPrefix(snap, "cc_coord_retries_total{"), int64(st.Retries); got != want {
		t.Errorf("retries_total = %d, stats say %d", got, want)
	}
	if got, want := snap["cc_coord_unavailable_total"].(int64), int64(st.Unavailable); got != want {
		t.Errorf("unavailable_total = %d, stats say %d", got, want)
	}
	// 2 drops + 4 partitioned attempts (first try + 3 retries).
	if got := sumPrefix(snap, "cc_coord_rpc_errors_total{"); got != 6 {
		t.Errorf("rpc_errors_total = %d, want 6", got)
	}
	if snap["cc_coord_bytes_sent_total"].(int64) <= 0 || snap["cc_coord_bytes_recv_total"].(int64) <= 0 {
		t.Error("byte counters did not move")
	}
	// Latency is observed per attempt, delivered or not: the initial sync's
	// one scan, and a bounded fetch of r for every other.
	count := func(op string) uint64 {
		hist, ok := snap[`cc_coord_rpc_seconds{op="`+op+`"}`].(map[string]any)
		if !ok {
			t.Fatalf("no %s latency histogram in %v", op, snap)
		}
		return hist["count"].(uint64)
	}
	attempts := lb.Stats().Attempts["s1"]
	if scans, fetches := count("scan"), count("fetch"); scans != uint64(st.SyncTrips) || scans+fetches != uint64(attempts) {
		t.Errorf("rpc_seconds counts %d scans and %d fetches, want %d and %d attempts in all", scans, fetches, st.SyncTrips, attempts)
	}

	if st.RetriesBySite["s1"] != st.Retries {
		t.Errorf("RetriesBySite = %v, Retries = %d", st.RetriesBySite, st.Retries)
	}
	if st.UnavailableBySite["s1"] != 1 {
		t.Errorf("UnavailableBySite = %v, want s1=1", st.UnavailableBySite)
	}
}

// TestSyncCountedInMetrics: Stats books the initial sync apart, and the
// metric views count it in as the wire saw it — a retry during the sync
// is a cc_coord_retries_total, and its scatter read of a sharded relation
// a cc_shard_scatter_total.
func TestSyncCountedInMetrics(t *testing.T) {
	lb := NewLoopback()
	for i, site := range []string{"s1", "s2"} {
		db := store.New()
		if _, err := db.Insert("r", relation.Ints(int64(i))); err != nil {
			t.Fatal(err)
		}
		lb.AddSite(site, NewServer(db, []string{"r"}))
	}
	lb.DropNext("s2", 1)
	reg := obs.NewRegistry()
	co, err := NewPlaced(store.New(), Placement{"r": {Shards: []ShardSpec{{Leader: "s1"}, {Leader: "s2"}}}}, lb, Options{
		Timeout: 50 * time.Millisecond,
		Backoff: time.Millisecond,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := co.Stats()
	if st.Retries != 0 || st.ShardScatter != 0 || st.SyncTrips != 2 {
		t.Fatalf("Stats = %+v, want the sync booked apart", st)
	}
	snap := reg.Snapshot()
	for series, want := range map[string]int64{
		`cc_coord_retries_total{site="s2"}`: 1,
		"cc_shard_scatter_total":            1,
		"cc_shard_routed_total":             0,
		"cc_coord_wire_tuples_total":        st.SyncTuples,
	} {
		if got := snap[series]; got != want {
			t.Errorf("%s = %v, want %d", series, got, want)
		}
	}
}

func TestReportShowsRetriesAndDegradedSites(t *testing.T) {
	co, lb := metricsFixture(t, obs.NewRegistry())
	rep := co.Report()
	for _, absent := range []string{"retries by site", "degraded sites"} {
		if strings.Contains(rep, absent) {
			t.Errorf("healthy report mentions %q:\n%s", absent, rep)
		}
	}
	lb.DropNext("s1", 2)
	if _, err := co.Apply(store.Ins("l", relation.Ints(100, 200))); err != nil {
		t.Fatal(err)
	}
	lb.Partition("s1")
	if _, err := co.Apply(store.Ins("l", relation.Ints(300, 400))); !errors.Is(err, ErrSiteUnavailable) {
		t.Fatalf("update under partition: err=%v", err)
	}
	rep = co.Report()
	// 2 dropped frames + 3 retries against the partition.
	if !strings.Contains(rep, "retries by site: s1=5") {
		t.Errorf("report missing per-site retries:\n%s", rep)
	}
	if !strings.Contains(rep, "degraded sites: s1=1") {
		t.Errorf("report missing degraded sites:\n%s", rep)
	}
}

func TestServerMetricsAgreeWithStats(t *testing.T) {
	db := store.New()
	for _, tu := range []relation.Tuple{relation.Ints(1, 2), relation.Ints(3, 4)} {
		if _, err := db.Insert("r", tu); err != nil {
			t.Fatal(err)
		}
	}
	srv := NewServer(db, []string{"r"})
	reg := obs.NewRegistry()
	srv.Instrument(reg)

	srv.Handle(&Request{Type: OpScan, Relation: "r"})
	srv.Handle(&Request{Type: OpScan, Relation: "r"})
	srv.Handle(&Request{Type: OpFetch, Relation: "r", Col: 0, Value: "#1"})
	srv.Handle(&Request{Type: OpScan, Relation: "hidden"}) // error: not served

	st := srv.Stats()
	snap := reg.Snapshot()

	var statReqs int64
	for _, n := range st.Requests {
		statReqs += n
	}
	if got := sumPrefix(snap, "cc_site_requests_total{"); got != statReqs {
		t.Errorf("requests_total = %d, stats say %d", got, statReqs)
	}
	if got := snap[`cc_site_tuples_sent_total{relation="r"}`].(int64); got != st.TuplesSent["r"] {
		t.Errorf("tuples_sent_total{r} = %d, stats say %d", got, st.TuplesSent["r"])
	}
	if got := snap["cc_site_errors_total"].(int64); got != st.Errors {
		t.Errorf("errors_total = %d, stats say %d", got, st.Errors)
	}
	hist, ok := snap[`cc_site_request_seconds{op="scan"}`].(map[string]any)
	if !ok {
		t.Fatalf("no scan latency histogram in %v", snap)
	}
	if got := hist["count"].(uint64); got != uint64(st.Requests[OpScan]) {
		t.Errorf("request_seconds{scan} count = %d, stats say %d", got, st.Requests[OpScan])
	}
	if snap["cc_site_bytes_recv_total"].(int64) <= 0 || snap["cc_site_bytes_sent_total"].(int64) <= 0 {
		t.Error("byte counters did not move")
	}
}

// TestSiteCountsJunkTypesAsUnknown: a client inventing request types
// grows nothing on the site. A thousand distinct types, traced, land on
// one "unknown" counter, one series per metric family and spans named
// site.unknown.
func TestSiteCountsJunkTypesAsUnknown(t *testing.T) {
	srv := NewServer(store.New(), []string{"r"})
	reg := obs.NewRegistry()
	srv.Instrument(reg)
	trace := obs.SpanContext{TraceID: obs.TraceID{1}, SpanID: obs.SpanID{2}, Sampled: true}.Traceparent()
	srv.Handle(&Request{Type: OpScan, Relation: "r"})
	for i := 0; i < 1000; i++ {
		resp := srv.Handle(&Request{Type: fmt.Sprintf("junk-%d", i), Trace: trace})
		if resp.OK || len(resp.Spans) != 1 || resp.Spans[0].Name != "site.unknown" {
			t.Fatalf("junk type %d: %+v", i, resp)
		}
	}
	if st := srv.Stats(); len(st.Requests) > 5 || st.Requests["unknown"] != 1000 || st.Requests[OpScan] != 1 {
		t.Fatalf("%d request counters: scan=%d unknown=%d", len(st.Requests), st.Requests[OpScan], st.Requests["unknown"])
	}
	var expo strings.Builder
	reg.WritePrometheus(&expo)
	for _, family := range []string{"cc_site_requests_total", "cc_site_request_seconds"} {
		ops := map[string]bool{}
		for _, line := range strings.Split(expo.String(), "\n") {
			if rest, ok := strings.CutPrefix(line, family); ok {
				if _, op, ok := strings.Cut(rest, `op="`); ok {
					ops[op[:strings.IndexByte(op, '"')]] = true
				}
			}
		}
		if len(ops) == 0 || len(ops) > 5 {
			t.Errorf("%s: %d series in /metrics, want 1 to 5", family, len(ops))
		}
	}
}
