package sched

import "repro/internal/obs"

// Metrics are the cc_sched_* instrument handles for one scheduler. The
// families carry a layer label, so building two Metrics on one registry
// is fine. The histograms are live; the counters and gauges are views of
// the scheduler, registered by New and read at scrape time.
type Metrics struct {
	reg   *obs.Registry
	layer string
	// ConflictWait distributes, over all tasks, the delay from admission
	// until the last conflicting earlier task finished; WorkerWait, over
	// the tasks that take a token, the delay from then until they got it
	// (cc_sched_wait_seconds, label kind = conflict | worker).
	ConflictWait, WorkerWait *obs.Histogram
	// Footprint distributes the conflict-scan time of Submit in seconds
	// (cc_sched_footprint_seconds).
	Footprint *obs.Histogram
}

// footprintBuckets: the conflict scan is a memory-bound walk over the
// in-flight set — microseconds, not milliseconds.
var footprintBuckets = []float64{
	1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 1e-3,
}

// NewMetrics registers (or fetches) the cc_sched_* histograms on reg and
// returns the handles for the given layer label ("serve"); New registers
// the counters and gauges over the scheduler it builds with them.
// Nil reg returns nil, which disables instrumentation.
func NewMetrics(reg *obs.Registry, layer string) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{
		reg:   reg,
		layer: layer,
		Footprint: reg.HistogramVec("cc_sched_footprint_seconds",
			"Footprint conflict-scan time per submission.", footprintBuckets, "layer").With(layer),
	}
	wait := reg.HistogramVec("cc_sched_wait_seconds",
		"Delay per task: kind=conflict from admission until its conflicts cleared, kind=worker from then until it got a worker token.",
		nil, "layer", "kind")
	m.ConflictWait, m.WorkerWait = wait.With(layer, "conflict"), wait.With(layer, "worker")
	return m
}

// register adds the views of s to m's registry: tasks submitted
// (cc_sched_tasks_total), tasks admitted behind a conflicting one by the
// first conflict's kind (cc_sched_conflict_stalls_total, label reason),
// tasks admitted and unfinished (cc_sched_inflight), and the Workers
// tokens held — tasks computing, not tasks running: one that may wait on
// a site holds none, so inflight − workers_busy is "ready, stalled or on
// the wire" (cc_sched_workers_busy).
func (m *Metrics) register(s *Scheduler) {
	m.reg.CounterFunc("cc_sched_tasks_total",
		"Tasks submitted to the conflict-aware apply scheduler.", func(emit obs.Emit) {
			emit(s.tasks.Load(), m.layer)
		}, "layer")
	m.reg.CounterFunc("cc_sched_conflict_stalls_total",
		"Tasks admitted behind at least one conflicting in-flight task, by the first conflict's kind.", func(emit obs.Emit) {
			for k := CauseBarrier; k <= CauseWholeRead; k++ {
				emit(s.stalls[k].Load(), m.layer, k.String())
			}
		}, "layer", "reason")
	m.reg.GaugeFunc("cc_sched_inflight",
		"Admitted, not yet finished scheduler tasks.", func(emit obs.Emit) {
			emit(int64(s.Stats().Inflight), m.layer)
		}, "layer")
	m.reg.GaugeFunc("cc_sched_workers_busy",
		"Worker tokens held: tasks computing (a task that may wait on a site holds none).", func(emit obs.Emit) {
			emit(int64(len(s.tokens)), m.layer)
		}, "layer")
}

// observeStart records a starting task's waits; a task that is not Wire
// has just taken a token.
func (m *Metrics) observeStart(info Info, wire bool) {
	m.ConflictWait.Observe(info.ConflictWait.Seconds())
	if !wire {
		m.WorkerWait.Observe(info.WorkerWait.Seconds())
	}
}
