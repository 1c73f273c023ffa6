package core

import (
	"time"

	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/store"
)

// This file is the checker's observability seam: the decision-trace
// emission behind Options.Tracer and the metric handles behind
// Options.Metrics. Both are strictly optional — with a nil (or disabled)
// tracer and a nil registry, Apply takes the exact pre-instrumentation
// path: no clock reads, no event construction, no atomic bumps beyond
// the existing stats.

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
func (c *Checker) emitAttempts(p *program, dyn []dynOutcome, u store.Update, uStr string, fresh bool) {
	var static []obs.Event
	j := 0
	for i := range p.steps {
		s := &p.steps[i]
		var attempts []obs.Event
		switch s.kind {
		case stepStatic:
			static = static[:0]
			c.stageOne(s.k, s.entry.Load(), !fresh, nil, u, &static)
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

// checkerMetrics holds the registry handles the checker bumps per
// update. Metric names are documented in DESIGN.md ("Observability").
type checkerMetrics struct {
	updates      *obs.Counter
	rejected     *obs.Counter
	decisions    *obs.CounterVec // phase
	certified    *obs.Counter
	fix          [3]*obs.Counter // by fixEvent
	applySeconds *obs.Histogram
	indexBuilds  *obs.Gauge
	indexProbes  *obs.Gauge
	planHits     *obs.Gauge
	planMisses   *obs.Gauge
	internSize   *obs.Gauge
	residHits    *obs.Gauge
	residMisses  *obs.Gauge
	residBuilt   *obs.Gauge
}

// newCheckerMetrics registers the checker's metric families on reg.
func newCheckerMetrics(reg *obs.Registry) *checkerMetrics {
	return &checkerMetrics{
		updates:      reg.Counter("cc_checker_updates_total", "updates pushed through the staged pipeline"),
		rejected:     reg.Counter("cc_checker_rejected_total", "updates refused on a violation"),
		decisions:    reg.CounterVec("cc_checker_decisions_total", "per-constraint decisions by deciding phase", "phase"),
		certified:    reg.Counter("cc_checker_local_certified_total", "residual decisions settled by local certificates alone: nothing but the updated relation was read"),
		applySeconds: reg.Histogram("cc_checker_apply_seconds", "wall clock per Apply", nil),
		indexBuilds:  reg.Gauge("cc_index_builds", "process-wide hash-index builds (relation layer)"),
		indexProbes:  reg.Gauge("cc_index_probes", "process-wide hash-index probes (relation layer)"),
		planHits:     reg.Gauge("cc_plan_cache_hits", "compiled evaluation plans reused from the plan cache"),
		planMisses:   reg.Gauge("cc_plan_cache_misses", "compiled evaluation plans built on a cache miss"),
		internSize:   reg.Gauge("cc_intern_size", "distinct constants in the process-wide intern pool"),
		residHits:    reg.Gauge("cc_residual_hits", "compiled residual checks served from the pattern cache"),
		residMisses:  reg.Gauge("cc_residual_misses", "residual lookups not served from the cache (fresh compilations plus pipeline fallbacks)"),
		residBuilt:   reg.Gauge("cc_residual_compiled", "residual compilations performed"),
		fix: [3]*obs.Counter{
			fixHit:     reg.Counter("cc_checker_fixpoint_hits_total", "global insert decisions served by delta rounds on a kept fixpoint"),
			fixRebuild: reg.Counter("cc_checker_fixpoint_rebuilds_total", "global insert decisions that evaluated the constraint in full to (re)build its kept fixpoint"),
			fixDrop:    reg.Counter("cc_checker_fixpoint_drops_total", "kept fixpoints discarded: an unaccounted write moved a relation they read, or the constraint set changed"),
		},
	}
}

// sampleIndexCounters mirrors the relation layer's process-wide index
// accounting into the registry; called once per Apply.
func (m *checkerMetrics) sampleIndexCounters() {
	m.indexBuilds.Set(relation.IndexBuilds())
	m.indexProbes.Set(relation.IndexProbes())
}

// samplePlanCounters mirrors the plan-cache counters and the intern-pool
// size into the registry; called once per Apply. pc may be nil
// (Options.DisablePlanCache), in which case the plan gauges stay zero.
func (m *checkerMetrics) samplePlanCounters(pc *eval.PlanCache) {
	if pc != nil {
		hits, misses, _ := pc.Stats()
		m.planHits.Set(hits)
		m.planMisses.Set(misses)
	}
	m.internSize.Set(relation.InternSize())
}

// sampleResidualCounters mirrors the residual counters (Stats.Residual*:
// the cache's own plus what served programs count) into the registry;
// called once per Apply. Without residual dispatch
// (Options.DisableResidual) the gauges stay zero.
func (c *Checker) sampleResidualCounters() {
	if c.residuals == nil {
		return
	}
	hits, misses, compiled, _ := c.residuals.Stats()
	c.statsMu.Lock()
	hits, misses = hits+c.stats.ResidualHits, misses+c.stats.ResidualMisses
	c.statsMu.Unlock()
	c.met.residHits.Set(hits)
	c.met.residMisses.Set(misses)
	c.met.residBuilt.Set(compiled)
}
