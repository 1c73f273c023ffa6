package core

import (
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/store"
)

// This file is the checker's observability seam: the decision-trace
// emission behind Options.Tracer and the metric families behind
// Options.Metrics. Both are strictly optional — with a nil (or disabled)
// tracer and a nil registry, Apply takes the exact pre-instrumentation
// path: no clock reads and no event construction. The registry's
// counters and gauges are read from Stats when it is scraped, so a
// registry adds nothing to a decision but the Apply latency histogram.

// tracing reports whether Apply should build trace events.
func (c *Checker) tracing() bool {
	return c.opts.Tracer != nil && c.opts.Tracer.Enabled()
}

// emit stamps the update string and the checker-wide sequence number on
// the event and hands it to the tracer. The sequence counter is atomic:
// with a single applier it is strictly increasing within and across
// updates; concurrent appliers (internal/sched) get unique, globally
// ordered numbers, though events of overlapping updates interleave.
func (c *Checker) emit(update string, e obs.Event) {
	e.Seq = c.traceSeq.Add(1)
	e.Update = update
	c.opts.Tracer.Emit(e)
}

// traceStart returns the attempt clock when tracing, the zero time
// otherwise (so the untraced path never reads the clock).
func traceStart(tr *[]obs.Event) time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// phaseAttempt appends one phase-attempt event to the constraint's local
// trace. Attempts in phases 1–3 can only decide "holds": a violation is
// observable solely in the global phase.
func phaseAttempt(tr *[]obs.Event, constraint string, p Phase, decided bool, cache string, start time.Time) {
	if tr == nil {
		return
	}
	e := obs.Event{
		Kind:       obs.KindPhase,
		Constraint: constraint,
		Phase:      p.String(),
		Decided:    decided,
		Cache:      cache,
		Duration:   time.Since(start),
	}
	if decided {
		e.Verdict = Holds.String()
	}
	*tr = append(*tr, e)
}

// emitAttempts emits what phases 1–3 made of every constraint they were
// asked about, in constraint order, ahead of any phase-4 event: the
// attempts the dynamic steps recorded, and for a static step the ones
// that decided it when the program was compiled — stageOne on the step's
// entry derives them again.
func (c *Checker) emitAttempts(p *program, dyn []dynOutcome, u store.Update, uStr string) {
	var static []obs.Event
	j := 0
	for i := range p.steps {
		s := &p.steps[i]
		var attempts []obs.Event
		switch s.kind {
		case stepStatic:
			static = static[:0]
			c.stageOne(s.k, s.entry, nil, u, &static)
			attempts = static
		case stepDynamic:
			attempts = dyn[j].trace
			j++
		}
		for _, e := range attempts {
			c.emit(uStr, e)
		}
	}
}

// remoteRelations lists the non-local EDB relations a global evaluation
// of the constraint consults — the "why did this update go remote" part
// of the trace.
func (c *Checker) remoteRelations(k *Constraint) []string {
	var out []string
	for _, rel := range k.edb {
		if !c.isLocal(rel) {
			out = append(out, rel)
		}
	}
	return out
}

// instrument registers the checker's metric families on reg (names in
// DESIGN.md, "Observability"). The counters and gauges are views, read
// at scrape time, of Stats and of the relation layer's process-wide
// counters; the Apply latency histogram, which no Stats can produce, is
// the one live instrument, returned for judge to observe.
func (c *Checker) instrument(reg *obs.Registry) *obs.Histogram {
	stat := func(name, help string, v func(Stats) int64) {
		reg.CounterFunc(name, help, func(emit obs.Emit) { emit(v(c.Stats())) })
	}
	stat("cc_checker_updates_total", "updates pushed through the staged pipeline",
		func(s Stats) int64 { return int64(s.Updates) })
	stat("cc_checker_rejected_total", "updates refused on a violation",
		func(s Stats) int64 { return int64(s.Rejected) })
	stat("cc_checker_local_certified_total", "residual decisions settled by local certificates alone: nothing but the updated relation was read",
		func(s Stats) int64 { return s.LocalCertified })
	stat("cc_checker_fixpoint_hits_total", "global insert decisions served by delta rounds on a kept fixpoint",
		func(s Stats) int64 { return s.FixpointHits })
	stat("cc_checker_fixpoint_rebuilds_total", "global insert decisions that evaluated the constraint in full to (re)build its kept fixpoint",
		func(s Stats) int64 { return s.FixpointRebuilds })
	stat("cc_checker_fixpoint_drops_total", "kept fixpoints discarded: an unaccounted write moved a relation they read, or the constraint set changed",
		func(s Stats) int64 { return s.FixpointDrops })
	reg.CounterFunc("cc_checker_decisions_total", "per-constraint decisions by deciding phase", func(emit obs.Emit) {
		for p, n := range c.Stats().ByPhase {
			emit(int64(n), p.String())
		}
	}, "phase")
	reg.GaugeFunc("cc_residual_compiled", "residual checks compiled when the constraint set changed",
		func(emit obs.Emit) { emit(c.Stats().ResidualCompiled) })
	reg.GaugeFuncOnce("cc_index_builds", "process-wide hash-index builds (relation layer)",
		func(emit obs.Emit) { emit(relation.IndexBuilds()) })
	reg.GaugeFuncOnce("cc_index_probes", "process-wide hash-index probes (relation layer)",
		func(emit obs.Emit) { emit(relation.IndexProbes()) })
	reg.GaugeFuncOnce("cc_intern_size", "distinct constants in the process-wide intern pool",
		func(emit obs.Emit) { emit(relation.InternSize()) })
	return reg.Histogram("cc_checker_apply_seconds", "wall clock per Apply", nil)
}
