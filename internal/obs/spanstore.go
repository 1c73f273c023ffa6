package obs

import (
	"sort"
	"sync"
	"time"
)

// TraceStore assembles spans into traces and retains a bounded window of
// them in memory. Retention is two-tier:
//
//   - recent: a FIFO ring of the latest completed traces (whatever head
//     sampling admitted), sized by cap.
//   - retained: tail-based keeps — traces whose root latency lands in
//     the slow tail (≥ the store's running p90 estimate) or that carry a
//     violation or error anywhere in the tree. These survive after the
//     recent ring has rotated past them, so the interesting traces are
//     still there when someone looks.
//
// Spans arrive out of order (children end before the root; site spans
// are adopted whenever the RPC response lands), so spans accumulate in
// an open table keyed by trace id until the root span ends.
type TraceStore struct {
	mu sync.Mutex

	openTraces map[TraceID]*openTrace
	openCap    int

	recent   []*Trace // FIFO ring, newest last
	cap      int
	retained []*Trace
	keepCap  int

	// reservoir of recent root durations backing the slow-tail estimate.
	durs    []time.Duration
	dursPos int

	completed uint64
	dropped   uint64 // open traces evicted before their root ended
}

type openTrace struct {
	spans   []SpanData
	started time.Time
}

// Trace is one completed trace: the root span plus everything that
// joined under its trace id before the root ended.
type Trace struct {
	ID        TraceID
	Root      SpanData
	Spans     []SpanData // includes the root; insertion order
	Violation bool       // any span carries a violation attr or error
}

// Duration is the end-to-end latency: the root span's duration.
func (t *Trace) Duration() time.Duration { return t.Root.Duration }

const (
	defaultOpenCap = 256
	defaultKeepCap = 128
	durWindow      = 512
)

// NewTraceStore builds a store retaining up to cap recent traces (and up
// to cap/4, min 16, tail-kept ones). cap <= 0 defaults to 256.
func NewTraceStore(cap int) *TraceStore {
	if cap <= 0 {
		cap = 256
	}
	keep := cap / 4
	if keep < 16 {
		keep = 16
	}
	if keep > defaultKeepCap {
		keep = defaultKeepCap
	}
	return &TraceStore{
		openTraces: make(map[TraceID]*openTrace),
		openCap:    defaultOpenCap,
		cap:        cap,
		keepCap:    keep,
		durs:       make([]time.Duration, 0, durWindow),
	}
}

// open registers a trace id as in-flight so later spans have a bucket.
func (s *TraceStore) open(id TraceID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.openLocked(id)
}

func (s *TraceStore) openLocked(id TraceID) *openTrace {
	if ot, ok := s.openTraces[id]; ok {
		return ot
	}
	if len(s.openTraces) >= s.openCap {
		// Evict the stalest open trace: a root that never ended (client
		// hang, crashed peer). Losing it beats unbounded growth.
		var oldestID TraceID
		var oldest time.Time
		first := true
		for tid, ot := range s.openTraces {
			if first || ot.started.Before(oldest) {
				oldestID, oldest, first = tid, ot.started, false
			}
		}
		delete(s.openTraces, oldestID)
		s.dropped++
	}
	ot := &openTrace{started: time.Now()}
	s.openTraces[id] = ot
	return ot
}

// record adds one completed span; root=true finalizes the trace.
func (s *TraceStore) record(sd SpanData, root bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ot := s.openLocked(sd.TraceID)
	ot.spans = append(ot.spans, sd)
	if !root {
		return
	}
	delete(s.openTraces, sd.TraceID)
	tr := &Trace{ID: sd.TraceID, Root: sd, Spans: ot.spans}
	for _, sp := range tr.Spans {
		if sp.Err != "" || sp.Attrs["applied"] == "false" || sp.Attrs["violation"] != "" {
			tr.Violation = true
			break
		}
	}
	s.completed++

	slow := s.isSlowLocked(sd.Duration)
	if len(s.durs) < durWindow {
		s.durs = append(s.durs, sd.Duration)
	} else {
		s.durs[s.dursPos] = sd.Duration
		s.dursPos = (s.dursPos + 1) % durWindow
	}

	s.recent = append(s.recent, tr)
	if len(s.recent) > s.cap {
		evicted := s.recent[0]
		s.recent = append(s.recent[:0], s.recent[1:]...)
		// Tail retention: the evicted trace survives in the retained
		// ring if it was slow or violating.
		if evicted.Violation || s.isSlowLocked(evicted.Root.Duration) {
			s.retainLocked(evicted)
		}
	}
	// Violating and slow traces are also pinned immediately, so they are
	// findable even if the recent ring rotates fast under load.
	if tr.Violation || slow {
		s.retainLocked(tr)
	}
}

func (s *TraceStore) retainLocked(tr *Trace) {
	for _, have := range s.retained {
		if have.ID == tr.ID {
			return
		}
	}
	s.retained = append(s.retained, tr)
	if len(s.retained) > s.keepCap {
		s.retained = append(s.retained[:0], s.retained[1:]...)
	}
}

// isSlowLocked reports whether d lands at or above the running p90 of
// recently completed root durations. With fewer than 20 observations
// nothing counts as slow — the estimate is noise that early.
func (s *TraceStore) isSlowLocked(d time.Duration) bool {
	if len(s.durs) < 20 {
		return false
	}
	sorted := make([]time.Duration, len(s.durs))
	copy(sorted, s.durs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return d >= quantileDur(sorted, 0.90)
}

// quantileDur reads the q-quantile from an ascending slice.
func quantileDur(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}

// AddComplete inserts one span as a complete single-span trace — how a
// site retains its side of a remote request locally, where the real root
// lives in another process's store.
func (s *TraceStore) AddComplete(sd SpanData) {
	if s == nil {
		return
	}
	s.record(sd, true)
}

// Traces lists stored traces, newest first: the recent window plus any
// tail-retained traces that have rotated out of it.
func (s *TraceStore) Traces() []*Trace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[TraceID]bool, len(s.recent)+len(s.retained))
	out := make([]*Trace, 0, len(s.recent)+len(s.retained))
	for i := len(s.recent) - 1; i >= 0; i-- {
		out = append(out, s.recent[i])
		seen[s.recent[i].ID] = true
	}
	for i := len(s.retained) - 1; i >= 0; i-- {
		if !seen[s.retained[i].ID] {
			out = append(out, s.retained[i])
		}
	}
	return out
}

// Trace returns the stored trace with the given id, or nil.
func (s *TraceStore) Trace(id TraceID) *Trace {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := len(s.recent) - 1; i >= 0; i-- {
		if s.recent[i].ID == id {
			return s.recent[i]
		}
	}
	for i := len(s.retained) - 1; i >= 0; i-- {
		if s.retained[i].ID == id {
			return s.retained[i]
		}
	}
	return nil
}

// Len returns how many distinct traces are currently stored.
func (s *TraceStore) Len() int {
	if s == nil {
		return 0
	}
	return len(s.Traces())
}

// Completed returns how many traces have finished since startup, and how
// many open traces were evicted un-finished.
func (s *TraceStore) Completed() (completed, dropped uint64) {
	if s == nil {
		return 0, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.completed, s.dropped
}

// AttribRow is one line of the latency-attribution rollup: the total
// self-time spent in spans with this name+service — and, for spans that
// carry a "reason" attribute (sched.wait: what the task waited for),
// this reason — across a set of traces. Self-time is a span's duration minus the sum of its children's
// durations (clamped at zero), so the rows of one trace telescope to the
// root duration and the decomposition is immune to cross-process clock
// skew — only durations are compared, never absolute timestamps.
type AttribRow struct {
	Name    string        `json:"name"`
	Service string        `json:"service"`
	Reason  string        `json:"reason,omitempty"`
	Count   int           `json:"count"`
	Self    time.Duration `json:"self_ns"`
	Pct     float64       `json:"pct"` // share of summed end-to-end time
}

// Summary is the /debug/traces/summary payload: end-to-end percentiles
// and the per-phase/per-site self-time decomposition, overall and for
// the slow tail.
type Summary struct {
	Traces  int           `json:"traces"`
	P50     time.Duration `json:"p50_ns"`
	P99     time.Duration `json:"p99_ns"`
	Overall []AttribRow   `json:"overall"` // across all stored traces
	Slow    []AttribRow   `json:"slow"`    // across traces with root ≥ p99
}

// Summarize computes the attribution rollup over the stored traces.
func (s *TraceStore) Summarize() Summary {
	traces := s.Traces()
	sum := Summary{Traces: len(traces)}
	if len(traces) == 0 {
		return sum
	}
	durs := make([]time.Duration, len(traces))
	for i, tr := range traces {
		durs[i] = tr.Root.Duration
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	sum.P50 = quantileDur(durs, 0.50)
	sum.P99 = quantileDur(durs, 0.99)

	var slow []*Trace
	for _, tr := range traces {
		if tr.Root.Duration >= sum.P99 {
			slow = append(slow, tr)
		}
	}
	sum.Overall = attribRows(traces)
	sum.Slow = attribRows(slow)
	return sum
}

// SelfTimes returns per-span self-time for one trace, keyed by span id.
func SelfTimes(tr *Trace) map[SpanID]time.Duration {
	childSum := make(map[SpanID]time.Duration)
	for _, sp := range tr.Spans {
		if !sp.Parent.IsZero() {
			childSum[sp.Parent] += sp.Duration
		}
	}
	out := make(map[SpanID]time.Duration, len(tr.Spans))
	for _, sp := range tr.Spans {
		self := sp.Duration - childSum[sp.SpanID]
		if self < 0 {
			self = 0
		}
		out[sp.SpanID] = self
	}
	return out
}

func attribRows(traces []*Trace) []AttribRow {
	type key struct{ name, service, reason string }
	acc := make(map[key]*AttribRow)
	var total time.Duration
	for _, tr := range traces {
		total += tr.Root.Duration
		selves := SelfTimes(tr)
		for _, sp := range tr.Spans {
			k := key{sp.Name, sp.Service, sp.Attrs["reason"]}
			row := acc[k]
			if row == nil {
				row = &AttribRow{Name: sp.Name, Service: sp.Service, Reason: k.reason}
				acc[k] = row
			}
			row.Count++
			row.Self += selves[sp.SpanID]
		}
	}
	rows := make([]AttribRow, 0, len(acc))
	for _, row := range acc {
		if total > 0 {
			row.Pct = 100 * float64(row.Self) / float64(total)
		}
		rows = append(rows, *row)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Self != rows[j].Self {
			return rows[i].Self > rows[j].Self
		}
		if rows[i].Name != rows[j].Name {
			return rows[i].Name < rows[j].Name
		}
		return rows[i].Reason < rows[j].Reason
	})
	return rows
}
