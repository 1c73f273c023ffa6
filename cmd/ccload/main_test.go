package main

import (
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/workload"
)

func TestParseMix(t *testing.T) {
	w, err := parseMix("check=70,apply=25,batch=5")
	if err != nil {
		t.Fatal(err)
	}
	if w[armCheck] != 70 || w[armApply] != 25 || w[armBatch] != 5 {
		t.Fatalf("weights = %v", w)
	}
	if w, err = parseMix("apply=1"); err != nil || w[armApply] != 1 || w[armCheck] != 0 {
		t.Fatalf("single arm: %v %v", w, err)
	}
	for _, bad := range []string{"", "check", "check=x", "check=-1", "bogus=1", "check=0,apply=0,batch=0"} {
		if _, err := parseMix(bad); err == nil {
			t.Fatalf("parseMix(%q) should fail", bad)
		}
	}
}

func TestQuantile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q := quantile(sorted, 0.50); q != 5 {
		t.Fatalf("p50 = %v", q)
	}
	if q := quantile(sorted, 0.99); q != 9 {
		t.Fatalf("p99 = %v", q)
	}
	if q := quantile([]float64{7}, 0.99); q != 7 {
		t.Fatalf("single sample = %v", q)
	}
}

// newD1Server serves the D1 forbidden-interval workload over httptest,
// the shape a ccserved started with that constraint has.
func newD1Server(t *testing.T) string {
	t.Helper()
	db := store.New()
	for _, tu := range workload.Intervals(rand.New(rand.NewSource(42)), 20, 20, 200) {
		if _, err := db.Insert("l", tu); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 50; i++ {
		if _, err := db.Insert("r", relation.Ints(10_000+i)); err != nil {
			t.Fatal(err)
		}
	}
	chk := core.New(db, core.Options{LocalRelations: []string{"l"}})
	if err := chk.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(chk, serve.Config{QueueDepth: 1024})
	hs := httptest.NewServer(srv.Handler("", nil, nil))
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs.URL
}

func TestRunRequiresAddr(t *testing.T) {
	if _, err := run(loadConfig{streams: 1, duration: time.Millisecond, mix: "check=1", conns: 1}); err == nil {
		t.Fatal("run without -addr should fail")
	}
}

// TestRunSelfServeSmoke is the wiring smoke test CI runs against a real
// ccserved, here against a server the test hosts itself: a short load
// with all three arms must finish with zero errors and produce the full
// record set.
func TestRunSelfServeSmoke(t *testing.T) {
	cfg := loadConfig{
		addr:     newD1Server(t),
		streams:  8,
		duration: 300 * time.Millisecond,
		mix:      "check=50,apply=40,batch=10",
		batch:    4,
		conns:    8,
		seed:     42,
	}
	recs, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != armCount+1 {
		t.Fatalf("got %d records, want %d", len(recs), armCount+1)
	}
	names := map[string]record{}
	var totalOps int64
	for _, r := range recs {
		names[r.Name] = r
		if r.Errors > 0 {
			t.Fatalf("%s saw %d errors", r.Name, r.Errors)
		}
	}
	for _, want := range []string{"ServeLoad/check", "ServeLoad/apply", "ServeLoad/batch", "ServeLoad/total"} {
		if _, ok := names[want]; !ok {
			t.Fatalf("missing record %q in %v", want, recs)
		}
	}
	total := names["ServeLoad/total"]
	totalOps = names["ServeLoad/check"].Ops + names["ServeLoad/apply"].Ops + names["ServeLoad/batch"].Ops
	if total.Ops == 0 || total.Ops != totalOps {
		t.Fatalf("total ops = %d, arms sum to %d", total.Ops, totalOps)
	}
	if total.P99US < total.P50US || total.P50US <= 0 {
		t.Fatalf("quantiles p50=%d p99=%d", total.P50US, total.P99US)
	}
	if total.ThroughputPerS <= 0 {
		t.Fatalf("throughput = %v", total.ThroughputPerS)
	}
	// The contended check band must have produced at least one violation
	// verdict — proof the pipeline is actually deciding, not rubber-stamping.
	if names["ServeLoad/check"].Violations == 0 {
		t.Fatal("check arm produced no violation verdicts")
	}
}
