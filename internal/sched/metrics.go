package sched

import (
	"time"

	"repro/internal/obs"
)

// Metrics are the cc_sched_* instrument handles for one scheduler. The
// families carry a layer label, so building two Metrics on one registry
// is fine.
type Metrics struct {
	// Tasks counts submitted tasks (cc_sched_tasks_total).
	Tasks *obs.Counter
	// ConflictStalls counts tasks admitted behind at least one
	// conflicting in-flight task, by the kind of the first conflict
	// (cc_sched_conflict_stalls_total, label reason; CauseNone unused).
	ConflictStalls [CauseWholeRead + 1]*obs.Counter
	// Inflight gauges admitted-but-unfinished tasks (cc_sched_inflight).
	Inflight *obs.Gauge
	// WorkersBusy gauges the Workers tokens held — tasks computing, not
	// tasks running: one that may wait on a site holds none, so
	// Inflight − WorkersBusy is "ready, stalled or on the wire"
	// (cc_sched_workers_busy).
	WorkersBusy *obs.Gauge
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

// NewMetrics registers (or fetches) the cc_sched_* families on reg and
// returns the handles for the given layer label ("serve").
// Nil reg returns nil, which disables instrumentation.
func NewMetrics(reg *obs.Registry, layer string) *Metrics {
	if reg == nil {
		return nil
	}
	m := &Metrics{
		Tasks: reg.CounterVec("cc_sched_tasks_total",
			"Tasks submitted to the conflict-aware apply scheduler.", "layer").With(layer),
		Inflight: reg.GaugeVec("cc_sched_inflight",
			"Admitted, not yet finished scheduler tasks.", "layer").With(layer),
		WorkersBusy: reg.GaugeVec("cc_sched_workers_busy",
			"Worker tokens held: tasks computing (a task that may wait on a site holds none).", "layer").With(layer),
		Footprint: reg.HistogramVec("cc_sched_footprint_seconds",
			"Footprint conflict-scan time per submission.", footprintBuckets, "layer").With(layer),
	}
	wait := reg.HistogramVec("cc_sched_wait_seconds",
		"Delay per task: kind=conflict from admission until its conflicts cleared, kind=worker from then until it got a worker token.",
		nil, "layer", "kind")
	m.ConflictWait, m.WorkerWait = wait.With(layer, "conflict"), wait.With(layer, "worker")
	stalls := reg.CounterVec("cc_sched_conflict_stalls_total",
		"Tasks admitted behind at least one conflicting in-flight task, by the first conflict's kind.", "layer", "reason")
	for k := CauseBarrier; k <= CauseWholeRead; k++ {
		m.ConflictStalls[k] = stalls.With(layer, k.String())
	}
	return m
}

// observeSubmit records one submission's conflict-scan cost and, when it
// stalled, why.
func (m *Metrics) observeSubmit(scan time.Duration, stall CauseKind) {
	m.Tasks.Inc()
	m.Footprint.Observe(scan.Seconds())
	if stall != CauseNone {
		m.ConflictStalls[stall].Inc()
	}
}

// observeStart records a starting task's waits; a task that is not Wire
// has just taken a token.
func (m *Metrics) observeStart(info Info, wire bool) {
	m.ConflictWait.Observe(info.ConflictWait.Seconds())
	if !wire {
		m.WorkerWait.Observe(info.WorkerWait.Seconds())
		m.WorkersBusy.Add(1)
	}
}

// observeDone records a finished task, its token already returned.
func (m *Metrics) observeDone(wire bool) {
	if !wire {
		m.WorkersBusy.Add(-1)
	}
	m.Inflight.Add(-1)
}
