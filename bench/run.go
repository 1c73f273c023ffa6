package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/netdist"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/store"
)

// workload is one of the four traffic shapes. build generates the
// inputs from the seed, brings the system under test up, and runs the
// warm-up pass (caches fill, residuals compile, indexes build); all of
// that is set-up time. A non-nil tracer asks for the decorators.
type workload struct {
	name  string
	build func(seed int64, tiny bool, t *tracer) (instance, error)
}

var workloads = []workload{
	{"embed_flat", buildEmbedFlat},
	{"embed_recursive", buildEmbedRecursive},
	{"serve_http", buildServeHTTP},
	{"dist_sharded", buildDistSharded},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// instance is a system under test that is up and warm.
type instance interface {
	// chunk runs one repetition: fixed op counts over the instance's
	// streams, net zero on the store. Every verdict is compared with the
	// generator's.
	chunk(traced bool) chunkStats
	// verify replays a prefix through the sequential oracle and compares
	// verdicts and final stores; it returns how many checks it made and
	// how many failed.
	verify(budget time.Duration) (checked, failed int, err error)
	handles() handles
	// layerMetrics adds the per-layer metrics only this workload has; it
	// may run further phases. spans are those of the last traced chunk.
	layerMetrics(m metrics, spans []span, o runOpts) error
	close()
}

// handles are the public surfaces the common per-layer collection reads.
type handles struct {
	chk   *core.Checker
	progs []*ast.Program // the constraints, parsed again for the replays
	// sample is a slice of the workload's own update stream.
	sample []store.Update
	srv    *serve.Server        // nil on the embedded workloads
	co     *netdist.Coordinator // nil unless distributed
	sites  []*netdist.Server
}

// chunkStats is what one repetition measured.
type chunkStats struct {
	requests  int
	decisions int // a batch of k counts k
	failed    int // errors, refusals, verdicts disagreeing with the generator
	elapsed   time.Duration
	// lat holds per-request latencies in nanoseconds.
	lat []float64
}

type runOpts struct {
	seed    int64
	seconds float64
	// reps > 0 fixes the number of repetitions (tests: counts must
	// repeat); otherwise repetitions run until seconds are used up.
	reps  int
	trace bool
	tiny  bool
	// oracle bounds the time the sequential oracle may take (0: as long as
	// its 10 000-op prefix takes), replay the time each replayed function
	// is timed for.
	oracle time.Duration
	replay time.Duration
	outDir string
}

// metrics maps a metric's name to its value.
type metrics map[string]float64

// detail is one reported value with its spread over the repetitions.
type detail struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// result is one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Reps      int               `json:"repetitions"`
	Metrics   map[string]detail `json:"metrics"`
	// spreads holds the per-repetition values behind each metric.
	spreads map[string][]float64
	values  metrics
}

const setupRuns = 5 // set-ups per run; setup_s is their median

// snap is the counters read before and after the timed section.
type snap struct {
	core     core.Stats
	probes   int64
	builds   int64
	serve    serve.Stats
	co       netdist.Stats
	siteReqs int64
}

func takeSnap(h handles) snap {
	s := snap{core: h.chk.Stats(), probes: relation.IndexProbes(), builds: relation.IndexBuilds()}
	if h.srv != nil {
		s.serve = h.srv.Stats()
	}
	if h.co != nil {
		s.co = h.co.Stats()
	}
	for _, site := range h.sites {
		for _, n := range site.Stats().Requests {
			s.siteReqs += n
		}
	}
	return s
}

// runWorkload is one run: set-up, timed repetitions, oracle, metrics.
func runWorkload(w workload, o runOpts) (*result, error) {
	var tr *tracer
	setups := setupRuns
	if o.trace {
		tr = newTracer()
	}
	if o.trace || o.reps > 0 {
		setups = 1 // set-up time is not what these runs report or check
	}
	var inst instance
	var setupS []float64
	for i := 0; i < setups; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if inst, err = w.build(o.seed, o.tiny, tr); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	defer inst.close()

	res := &result{Workload: w.name, Seed: o.seed, Trace: o.trace, spreads: map[string][]float64{}, values: metrics{}}
	res.spreads["setup_s"] = setupS
	h := inst.handles()
	before := takeSnap(h)

	// Timed repetitions. A traced run alternates untraced and traced
	// repetitions; their rates give the tracing overhead.
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	var longest time.Duration
	var tracedRate, plainRate []float64
	var ms0, ms1 runtime.MemStats
	for rep := 0; ; rep++ {
		if o.reps > 0 {
			if rep == o.reps {
				break
			}
		} else if rep > 0 && time.Since(start)+longest > budget {
			break
		}
		traced := o.trace && rep%2 == 1
		if traced {
			tr.reset()
		}
		if tr != nil {
			tr.on.Store(traced)
		}
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		cs := inst.chunk(traced)
		if d := time.Since(t0); d > longest {
			longest = d
		}
		runtime.ReadMemStats(&ms1)
		if tr != nil {
			tr.on.Store(false)
		}
		alloc := float64(ms1.TotalAlloc - ms0.TotalAlloc)
		// Memory held between repetitions, after a forced collection: one
		// sample per repetition steadies the number, and every repetition
		// starts from a collected heap.
		runtime.GC()
		runtime.ReadMemStats(&ms1)
		res.add("heap_inuse_mb", float64(ms1.HeapInuse)/(1<<20))
		res.Attempted += cs.requests
		res.Failed += cs.failed
		res.Reps++
		rate := float64(cs.decisions) / cs.elapsed.Seconds()
		if traced {
			tracedRate = append(tracedRate, rate)
			continue
		}
		plainRate = append(plainRate, rate)
		res.add("decisions_per_s", rate)
		res.add("latency_p50_us", quantile(cs.lat, 0.50)/1e3)
		res.add("loadgen.latency_p99_us", quantile(cs.lat, 0.99)/1e3)
		res.add("alloc_bytes_per_op", alloc/float64(cs.decisions))
	}
	after := takeSnap(h)

	// The counters are plain Stats() deltas and cost nothing to read, so
	// every run reports them: an untraced -out file then carries the wire
	// costs -compare gates on.
	m := res.values
	counterMetrics(m, before, after)
	if o.trace {
		spans := tr.allSpans()
		m["bench.trace_overhead_share"] = 1 - share(median(tracedRate), median(plainRate))
		spanMetrics(m, spans)
		if err := inst.layerMetrics(m, spans, o); err != nil {
			return nil, fmt.Errorf("%s: layer metrics: %w", w.name, err)
		}
		replayMetrics(m, h, tr, o.replay)
		spans = tr.allSpans() // layerMetrics may have traced further phases
		sum := summarize(spans)
		m["bench.trace_unattributed_share"] = sum.UnattributedShare
		path := filepath.Join(o.outDir, "trace-"+w.name+".json")
		if err := writeTrace(path, w.name, o.seed, sum, spans); err != nil {
			return nil, err
		}
	}

	checked, failed, err := inst.verify(o.oracle)
	if err != nil {
		return nil, fmt.Errorf("%s: oracle: %w", w.name, err)
	}
	res.Attempted += checked
	res.Failed += failed
	res.values["failed_share"] = share(float64(res.Failed), float64(res.Attempted))
	return res, nil
}

// add records one repetition's value of a metric.
func (r *result) add(name string, v float64) {
	r.spreads[name] = append(r.spreads[name], v)
}

// finish turns the per-repetition values into reported ones and attaches
// units from the declaration. Every metric the run's mode declares must
// have been measured — in a traced run, a metric of a layer the workload
// does not run is 0 — and nothing undeclared may be.
//
// The two timings report their best repetition, everything else the
// median: neighbours on the shared host only ever slow a repetition down,
// by a factor that wanders over seconds and minutes, and the least
// disturbed repetition repeats better from run to run than the median one
// (README, Calibration).
func (r *result) finish(decl *declaration) error {
	r.Metrics = map[string]detail{}
	for name, xs := range r.spreads {
		switch lo, hi := minMax(xs); name {
		case "decisions_per_s":
			r.values[name] = hi
		case "latency_p50_us":
			r.values[name] = lo
		default:
			r.values[name] = median(xs)
		}
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDecl{}, decl.EndToEnd...), decl.PerLayer...) {
		units[d.Name] = d.Unit
	}
	for _, d := range decl.metricsFor(r.Trace) {
		if _, ok := r.values[d.Name]; ok {
			continue
		}
		if !r.Trace {
			return fmt.Errorf("%s: end-to-end metric %s was not measured", r.Workload, d.Name)
		}
		r.values[d.Name] = 0
	}
	for name, v := range r.values {
		unit, ok := units[name]
		if !ok {
			return fmt.Errorf("%s: metric %s is measured but BENCHMARK.json does not declare it", r.Workload, name)
		}
		det := detail{Value: v, Unit: unit, Min: v, Max: v, N: 1}
		if xs := r.spreads[name]; len(xs) > 0 {
			det.Min, det.Max = minMax(xs)
			det.N = len(xs)
		}
		r.Metrics[name] = det
	}
	return nil
}
