package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Event kinds. An update's trace is one update-begin, then one phase
// event per phase *attempt* per constraint (in constraint registration
// order, read-only attempts before global evaluations), then one
// update-end.
const (
	KindUpdateBegin = "update-begin"
	KindPhase       = "phase"
	KindUpdateEnd   = "update-end"
)

// Cache status values on phase events.
const (
	CacheHit  = "hit"
	CacheMiss = "miss"
	CacheOff  = "off"
)

// Event is one step of a decision trace. The emitting checker assigns
// Seq monotonically, so a merged or exported stream can always be
// re-ordered; Update strings use the store's "+rel(t)"/"-rel(t)" syntax.
type Event struct {
	Kind string `json:"kind"`
	Seq  uint64 `json:"seq"`
	// Update is the update being traced, e.g. "+emp(ann,toy,50)".
	Update string `json:"update"`
	// Constraint and Phase identify a phase attempt; Decided reports
	// whether this attempt settled the constraint, Verdict the outcome
	// when it did ("holds" or "VIOLATED").
	Constraint string `json:"constraint,omitempty"`
	Phase      string `json:"phase,omitempty"`
	Decided    bool   `json:"decided,omitempty"`
	Verdict    string `json:"verdict,omitempty"`
	// Cache is the decision-cache status of the attempt: "hit", "miss",
	// "off" (cache disabled), or empty for uncached phases.
	Cache string `json:"cache,omitempty"`
	// Certificate is "hit" when a residual check was decided by its local
	// certificates alone — no other relation was read — and "miss" when
	// it has certificates and had to run a plan; Witness is then the
	// stored tuple that certified it, e.g. "emp(ann,toy)". Both are empty
	// for checks compiled without certificates.
	Certificate string `json:"certificate,omitempty"`
	Witness     string `json:"witness,omitempty"`
	// Duration is the attempt's wall clock.
	Duration time.Duration `json:"duration_ns,omitempty"`
	// Relations lists the remote relations a global evaluation consults.
	Relations []string `json:"relations,omitempty"`
	// Constraints is the managed-constraint count (update-begin only).
	Constraints int `json:"constraints,omitempty"`
	// Applied and Rejected summarize the update (update-end only).
	Applied  bool     `json:"applied,omitempty"`
	Rejected []string `json:"rejected,omitempty"`
	// IndexProbes is the process-wide index-probe delta observed across
	// the update (update-end only; 0 when index stats are unavailable).
	IndexProbes int64 `json:"index_probes,omitempty"`
	// Err records an evaluation error that aborted the update.
	Err string `json:"err,omitempty"`
}

// Tracer receives decision-trace events. Emitters gate every hook on
// Enabled() before building an event, so a disabled tracer costs one
// interface call per update, not per phase.
type Tracer interface {
	Enabled() bool
	Emit(Event)
}

// Disabled is a Tracer that is never enabled: plugging it in exercises
// the emitter's gating hooks without paying for event construction —
// the "tracing off" arm of the overhead benchmark.
var Disabled Tracer = disabledTracer{}

type disabledTracer struct{}

func (disabledTracer) Enabled() bool { return false }
func (disabledTracer) Emit(Event)    {}

// BufferTracer retains the traces of the most recent updates in memory,
// grouped by update; ccshell's :explain replays the last one.
type BufferTracer struct {
	mu sync.Mutex
	// updates holds one event slice per update-begin seen, oldest first.
	updates [][]Event
	cap     int
}

// NewBufferTracer retains the last keep updates (default 16 when
// keep <= 0).
func NewBufferTracer(keep int) *BufferTracer {
	if keep <= 0 {
		keep = 16
	}
	return &BufferTracer{cap: keep}
}

// Enabled always reports true.
func (b *BufferTracer) Enabled() bool { return true }

// Emit appends the event, starting a new group on update-begin.
func (b *BufferTracer) Emit(e Event) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if e.Kind == KindUpdateBegin || len(b.updates) == 0 {
		b.updates = append(b.updates, nil)
		if len(b.updates) > b.cap {
			b.updates = b.updates[len(b.updates)-b.cap:]
		}
	}
	i := len(b.updates) - 1
	b.updates[i] = append(b.updates[i], e)
}

// Last returns the most recent update's events (nil when nothing was
// traced yet).
func (b *BufferTracer) Last() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.updates) == 0 {
		return nil
	}
	return append([]Event(nil), b.updates[len(b.updates)-1]...)
}

// All returns every retained event, oldest update first.
func (b *BufferTracer) All() []Event {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []Event
	for _, u := range b.updates {
		out = append(out, u...)
	}
	return out
}

// JSONLTracer streams events as JSON Lines — one event object per line —
// the machine-readable export behind ccheck -trace-out.
type JSONLTracer struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewJSONLTracer writes events to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer { return &JSONLTracer{w: w} }

// Enabled always reports true.
func (t *JSONLTracer) Enabled() bool { return true }

// Emit writes one line; the first write error sticks and later emits are
// dropped (a broken export must not abort the checking run).
func (t *JSONLTracer) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	body, err := json.Marshal(e)
	if err != nil {
		t.err = err
		return
	}
	if _, err := t.w.Write(append(body, '\n')); err != nil {
		t.err = err
	}
}

// Err returns the first write/marshal error, if any.
func (t *JSONLTracer) Err() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

// TextTracer renders events human-readably as they arrive — the
// streaming explain behind ccheck -trace.
type TextTracer struct {
	mu sync.Mutex
	w  io.Writer
}

// NewTextTracer writes renderings to w.
func NewTextTracer(w io.Writer) *TextTracer { return &TextTracer{w: w} }

// Enabled always reports true.
func (t *TextTracer) Enabled() bool { return true }

// Emit renders one event.
func (t *TextTracer) Emit(e Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	writeEvent(t.w, e)
}

// MultiTracer fans events out to several tracers; it is enabled when any
// member is. Disabled members are skipped per event.
func MultiTracer(ts ...Tracer) Tracer { return multiTracer(ts) }

type multiTracer []Tracer

func (m multiTracer) Enabled() bool {
	for _, t := range m {
		if t.Enabled() {
			return true
		}
	}
	return false
}

func (m multiTracer) Emit(e Event) {
	for _, t := range m {
		if t.Enabled() {
			t.Emit(e)
		}
	}
}

// WriteText renders a trace human-readably: the explain format shared by
// ccheck -trace and ccshell :explain.
//
//	== +emp(eve,ghost,70) (2 constraints)
//	   ri           unaffected   next                    cache=hit  2µs
//	   ri           global       decided: VIOLATED       remote=dept  210µs
//	   => REJECTED [ri]
func WriteText(w io.Writer, events []Event) {
	for _, e := range events {
		writeEvent(w, e)
	}
}

func writeEvent(w io.Writer, e Event) {
	switch e.Kind {
	case KindUpdateBegin:
		fmt.Fprintf(w, "== %s (%d constraints)\n", e.Update, e.Constraints)
	case KindPhase:
		outcome := "next"
		if e.Decided {
			outcome = "decided: " + e.Verdict
		}
		fmt.Fprintf(w, "   %-12s %-12s %-20s", e.Constraint, e.Phase, outcome)
		if e.Cache != "" {
			fmt.Fprintf(w, "  cache=%s", e.Cache)
		}
		if e.Certificate != "" {
			fmt.Fprintf(w, "  certificate=%s", e.Certificate)
		}
		if e.Witness != "" {
			fmt.Fprintf(w, "  witness=%s", e.Witness)
		}
		if len(e.Relations) > 0 {
			fmt.Fprintf(w, "  remote=%s", strings.Join(e.Relations, ","))
		}
		if e.Duration > 0 {
			fmt.Fprintf(w, "  %s", e.Duration.Round(time.Microsecond))
		}
		fmt.Fprintln(w)
	case KindUpdateEnd:
		switch {
		case e.Err != "":
			fmt.Fprintf(w, "   => error: %s\n", e.Err)
		case e.Applied:
			fmt.Fprintf(w, "   => applied\n")
		default:
			fmt.Fprintf(w, "   => REJECTED [%s]\n", strings.Join(e.Rejected, ","))
		}
	}
}
