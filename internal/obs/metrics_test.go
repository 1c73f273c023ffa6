package obs

import (
	"expvar"
	"io"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Error("re-registering a counter did not return the same handle")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-3)
	if g.Value() != 4 {
		t.Errorf("gauge = %d, want 4", g.Value())
	}
}

func TestCounterVecSeparatesLabels(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("rpc_total", "requests", "site", "op")
	cv.With("a", "scan").Add(2)
	cv.With("a", "apply").Inc()
	cv.With("b", "scan").Inc()
	if got := cv.With("a", "scan").Value(); got != 2 {
		t.Errorf(`With("a","scan") = %d, want 2`, got)
	}
	if got := cv.With("b", "scan").Value(); got != 1 {
		t.Errorf(`With("b","scan") = %d, want 1`, got)
	}
}

// TestHistogramBucketMath pins the bucket placement rules: le bounds are
// inclusive, values above the last bound land in +Inf only, and the
// exposed counts are cumulative.
func TestHistogramBucketMath(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.1, 0.5, 1})
	for _, v := range []float64{0.05, 0.1, 0.3, 0.5, 0.9, 2, 100} {
		h.Observe(v)
	}
	cum, sum, count := h.Snapshot()
	if count != 7 {
		t.Errorf("count = %d, want 7", count)
	}
	if want := 0.05 + 0.1 + 0.3 + 0.5 + 0.9 + 2 + 100; sum != want {
		t.Errorf("sum = %g, want %g", sum, want)
	}
	// cumulative: le=0.1 -> {0.05, 0.1}; le=0.5 -> +{0.3, 0.5};
	// le=1 -> +{0.9}; +Inf -> +{2, 100}.
	want := []uint64{2, 4, 5, 7}
	if len(cum) != len(want) {
		t.Fatalf("snapshot has %d buckets, want %d", len(cum), len(want))
	}
	for i := range want {
		if cum[i] != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, cum[i], want[i])
		}
	}
}

func TestRegistryPanicsOnSchemaMismatch(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "first")
	defer func() {
		if recover() == nil {
			t.Error("re-registering m as a gauge did not panic")
		}
	}()
	r.Gauge("m", "second")
}

// TestPrometheusExpositionGolden pins the exact text format: sorted
// families, labeled series, histogram bucket/sum/count lines.
func TestPrometheusExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_total", "last family").Add(3)
	cv := r.CounterVec("aa_total", "first family", "site")
	cv.With("s1").Add(2)
	cv.With(`s"2\`).Inc()
	r.Gauge("mid", "a gauge").Set(-4)
	h := r.HistogramVec("rpc_seconds", "rpc latency", []float64{0.25, 0.5}, "op")
	h.With("scan").Observe(0.25)
	h.With("scan").Observe(0.3)
	h.With("scan").Observe(9)

	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := `# HELP aa_total first family
# TYPE aa_total counter
aa_total{site="s\"2\\"} 1
aa_total{site="s1"} 2
# HELP mid a gauge
# TYPE mid gauge
mid -4
# HELP rpc_seconds rpc latency
# TYPE rpc_seconds histogram
rpc_seconds_bucket{op="scan",le="0.25"} 1
rpc_seconds_bucket{op="scan",le="0.5"} 2
rpc_seconds_bucket{op="scan",le="+Inf"} 3
rpc_seconds_sum{op="scan"} 9.55
rpc_seconds_count{op="scan"} 3
# HELP zz_total last family
# TYPE zz_total counter
zz_total 3
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", sb.String(), want)
	}
}

func TestHandlerServesExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "hits").Add(12)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "hits_total 12") {
		t.Errorf("body missing counter:\n%s", rec.Body.String())
	}
}

func TestSnapshotAndExpvarBridge(t *testing.T) {
	r := NewRegistry()
	r.CounterVec("reads_total", "reads", "relation").With("emp").Add(9)
	r.Histogram("h_seconds", "h", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	if snap[`reads_total{relation="emp"}`] != int64(9) {
		t.Errorf("snapshot counter = %v", snap[`reads_total{relation="emp"}`])
	}
	hist, ok := snap["h_seconds"].(map[string]any)
	if !ok || hist["count"] != uint64(1) {
		t.Errorf("snapshot histogram = %v", snap["h_seconds"])
	}

	r.PublishExpvar("obs_test_bridge")
	r.PublishExpvar("obs_test_bridge") // second publish must not panic
	v := expvar.Get("obs_test_bridge")
	if v == nil {
		t.Fatal("expvar bridge not published")
	}
	if s := v.String(); !strings.Contains(s, `"reads_total{relation=\"emp\"}":9`) {
		t.Errorf("expvar payload missing counter: %s", s)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	cv := r.CounterVec("c_total", "c", "k")
	hv := r.HistogramVec("h_seconds", "h", nil, "k")
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := string(rune('a' + g%3))
			for i := 0; i < 200; i++ {
				cv.With(key).Inc()
				hv.With(key).Observe(float64(i) / 1000)
				r.WritePrometheus(io.Discard)
			}
		}(g)
	}
	wg.Wait()
	total := cv.With("a").Value() + cv.With("b").Value() + cv.With("c").Value()
	if total != 8*200 {
		t.Errorf("lost increments: %d, want %d", total, 8*200)
	}
}

// TestCollectedFamilies: a collected family's series are what its
// collectors emit at each scrape, summed by label set across collectors
// and within one; its HELP and TYPE show before anything is emitted. A
// process-wide gauge registered twice is collected once.
func TestCollectedFamilies(t *testing.T) {
	r := NewRegistry()
	var a, b int64
	r.CounterFunc("req_total", "requests", func(emit Emit) {
		emit(a, "scan")
		emit(1, "scan")
	}, "op")
	r.CounterFunc("req_total", "requests", func(emit Emit) {
		emit(b, "fetch")
		emit(b, "scan")
	}, "op")
	r.GaugeFunc("depth", "queue depth", func(emit Emit) { emit(a - b) })
	r.CounterFunc("none_total", "nothing yet", func(Emit) {}, "op")
	for i := 0; i < 2; i++ {
		r.GaugeFuncOnce("process", "one per process", func(emit Emit) { emit(7) })
	}
	a, b = 5, 2
	var sb strings.Builder
	r.WritePrometheus(&sb)
	want := `# HELP depth queue depth
# TYPE depth gauge
depth 3
# HELP none_total nothing yet
# TYPE none_total counter
# HELP process one per process
# TYPE process gauge
process 7
# HELP req_total requests
# TYPE req_total counter
req_total{op="fetch"} 2
req_total{op="scan"} 8
`
	if sb.String() != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", sb.String(), want)
	}
	b = 3
	snap := r.Snapshot()
	if snap[`req_total{op="scan"}`] != int64(9) || snap["depth"] != int64(2) {
		t.Errorf("snapshot read stale values: %v", snap)
	}
}

// TestCollectorsRunOutsideLocks: a collector may use the registry it is
// registered on.
func TestCollectorsRunOutsideLocks(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("families", "registered families", func(emit Emit) {
		r.Counter("seen_total", "scrapes seen by a collector").Inc()
		emit(1)
	})
	done := make(chan struct{})
	go func() {
		r.WritePrometheus(io.Discard)
		r.Snapshot()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a collector that registers a family deadlocked the scrape")
	}
	if got := r.Counter("seen_total", "").Value(); got != 2 {
		t.Errorf("collector ran %d times over two scrapes", got)
	}
}

func TestLiveAndCollectedDoNotMix(t *testing.T) {
	for name, register := range map[string]func(r *Registry){
		"func after vec": func(r *Registry) {
			r.CounterVec("m", "m", "k")
			r.CounterFunc("m", "m", func(Emit) {}, "k")
		},
		"live after func": func(r *Registry) {
			r.GaugeFunc("m", "m", func(Emit) {})
			r.Gauge("m", "m")
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			register(NewRegistry())
		}()
	}
}
