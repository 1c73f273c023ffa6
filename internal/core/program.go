package core

import (
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/residual"
	"repro/internal/store"
)

// The paper's first two levels of information — the constraints alone
// (Section 3) and the constraints plus the update (Section 4) — are
// functions of the update pattern, not of the tuple. A program is what
// they say about one pattern, derived once: which constraints the
// pattern cannot touch, which a compiled residual check decides, which
// still need the tuple-dependent tests, what a decision may read, and
// where each lands in the name-ordered report. judge and Plan interpret
// it, Footprints instantiates its reads; only the data probe is left for
// run time.

// progKey identifies an update pattern. The arity is part of it: a
// residual is compiled for the occurrences of that arity alone, and a
// malformed tuple must share nothing with a well-formed one.
type progKey struct {
	rel    string
	insert bool
	arity  int
}

// programCap bounds the pattern map (a client chooses relation names and
// arities); at the cap it is reset wholesale, the residual cache's policy.
const programCap = 4096

// stepKind says how a decision settles one constraint.
type stepKind uint8

const (
	// stepStatic: the constraint does not mention the relation, or the
	// direction is monotone-safe. The verdict is in the program's report
	// and nothing runs.
	stepStatic stepKind = iota
	// stepResidual: the compiled check of the pattern decides.
	stepResidual
	// stepPinned: a compiled check decides, but an occurrence carries a
	// constant, so which one depends on the tuple's value there: looked up
	// per decision (residual.Cache.For).
	stepPinned
	// stepDynamic: the tuple-dependent tests — Section 4 rewriting with its
	// projected-key memo, the Section 5 local test — and, where they do not
	// certify, the kept fixpoint or an evaluation (stageOne, evaluate).
	stepDynamic
)

// compiledCheck is a residual and the store schema version it was
// compiled under: its arity folds hold for that shape of the store only.
type compiledCheck struct {
	res    *residual.Residual
	schema uint64
}

// progStep is one constraint's part in a program.
type progStep struct {
	k    *Constraint
	kind stepKind
	// slot is the constraint's index in the name-ordered report.
	slot int
	// phase is what decided a stepStatic.
	phase Phase
	// check is a stepResidual's compiled check, filled by the first decision
	// that runs the step and again after the store's schema has moved.
	check atomic.Pointer[compiledCheck]
	// entry memoizes the pattern-level phase-1/1.5 verdicts and the phase-2
	// verdicts per projected tuple: built with the program for the steps the
	// phases decide, by the first Plan that gets that far for the steps a
	// compiled check decides; nil under Options.DisableCache.
	entry atomic.Pointer[cacheEntry]
}

// program is the compiled decision of one update pattern, valid for the
// constraint set it was compiled for (refreshSet drops them all).
type program struct {
	// steps in registration order.
	steps []progStep
	// report in constraint-name order, as a decision with no violation
	// leaves it: a decision copies it and patches what it finds.
	report []Decision
	// dynamic indexes the stepDynamic steps.
	dynamic []int
	// static counts the stepStatic steps by deciding phase.
	static [numPhases]int
	// memos counts the steps compiled with an entry, and ineligible those
	// the residual compiler refused: what serving the program counts for the
	// lookups it replaces (Stats.CacheHits, Stats.ResidualMisses).
	memos, ineligible int
	// claims are what a decision of the pattern may read, in step order
	// (footprint.go); wire says one of them is of a remote relation.
	claims []claim
	wire   bool
	// served is set by the first decision or plan that runs the program,
	// which counts its compilation (program): a footprint lookup compiles
	// without running it.
	served atomic.Bool
}

// tally is what one decision or plan adds to the checker's counters,
// added under one hold of statsMu (record).
type tally struct {
	updates, decisions, rejected int
	byPhase                      [numPhases]int
	cacheHits, cacheMisses       int64
	residualHits, residualMisses int64
}

// record adds t to the statistics and, when a registry is attached, to
// the cc_checker_decisions_total family.
func (c *Checker) record(t *tally) {
	c.statsMu.Lock()
	c.stats.Updates += t.updates
	c.stats.Decisions += t.decisions
	c.stats.Rejected += t.rejected
	for p, n := range t.byPhase {
		c.byPhase[p] += n
	}
	c.stats.CacheHits += t.cacheHits
	c.stats.CacheMisses += t.cacheMisses
	c.stats.ResidualHits += t.residualHits
	c.stats.ResidualMisses += t.residualMisses
	c.statsMu.Unlock()
	if c.met != nil {
		for p, n := range t.byPhase {
			if n > 0 {
				c.met.decisions.With(Phase(p).String()).Add(int64(n))
			}
		}
	}
}

// program returns the program of u's pattern for a decision or plan to
// run; fresh says none has run it before, so this one counts its memos
// as built rather than served — whether a decision, or a footprint lookup
// before it, compiled it.
func (c *Checker) program(u store.Update, t *tally) (p *program, fresh bool) {
	p = c.programOf(u)
	fresh = !p.served.Swap(true)
	if fresh {
		t.cacheMisses += int64(p.memos)
	} else {
		t.cacheHits += int64(p.memos)
	}
	return p, fresh
}

// programOf returns the program of u's pattern, compiling it on first
// sight. Two callers may compile one pattern at once: the first to finish
// is kept, the other runs its own.
func (c *Checker) programOf(u store.Update) *program {
	key := progKey{u.Relation, u.Insert, len(u.Tuple)}
	c.progMu.Lock()
	p := c.programs[key]
	c.progMu.Unlock()
	if p != nil {
		return p
	}
	p = c.compile(key)
	c.progMu.Lock()
	if len(c.programs) >= programCap {
		c.programs = map[progKey]*program{}
	}
	if _, raced := c.programs[key]; !raced {
		c.programs[key] = p
	}
	c.progMu.Unlock()
	return p
}

// compile derives the pattern's program from the constraint set. It
// reads no data: what a step needs of the store — a residual's arity
// folds — is compiled when the step first runs (check). The static phases
// come first: a constraint that does not mention the relation, or that the
// direction cannot violate, needs no check — under Options.DisableCache
// the phases re-derive that per update. A compiled check decides the rest
// where the constraint has a flat form (Constraint.flat). Claims do not
// depend on Options.DisableCache: a step the pattern-level phases decide
// claims nothing, whether it is static or they decide it per update.
func (c *Checker) compile(key progKey) *program {
	n := len(c.constraints)
	p := &program{steps: make([]progStep, n), report: make([]Decision, n)}
	byName := make([]int, n)
	for i := range byName {
		byName[i] = i
	}
	sort.Slice(byName, func(a, b int) bool { return c.constraints[byName[a]].Name < c.constraints[byName[b]].Name })
	for slot, i := range byName {
		p.steps[i].slot = slot
	}
	for i, k := range c.constraints {
		s := &p.steps[i]
		s.k = k
		d := &p.report[s.slot]
		d.Constraint = k.Name
		e := buildCacheEntry(k.Prog, key.rel, key.insert)
		phase, static := c.staticPhase(e)
		if !static && c.residuals != nil {
			if sh := residual.DeriveShape(k.flat, key.rel, key.insert); sh.Eligible {
				s.kind, d.Phase = stepResidual, PhaseResidual
				if slices.Contains(sh.Pinned, true) {
					s.kind = stepPinned
				}
				c.addClaims(p, s, key)
				continue
			}
			p.ineligible++
		}
		if !c.opts.DisableCache {
			s.entry.Store(e)
			p.memos++
			if static {
				s.kind, s.phase, d.Phase = stepStatic, phase, phase
				p.static[phase]++
				continue
			}
		}
		s.kind, d.Phase = stepDynamic, PhaseGlobal
		p.dynamic = append(p.dynamic, i)
		if !static {
			c.addClaims(p, s, key)
		}
	}
	p.wire = slices.ContainsFunc(p.claims, func(cl claim) bool { return c.remote(cl.rel) })
	return p
}

// buildEntry builds the step's entry and counts the miss; nil under
// Options.DisableCache, where every verdict is re-derived per update.
func (c *Checker) buildEntry(s *progStep, key progKey, t *tally) *cacheEntry {
	if c.opts.DisableCache {
		return nil
	}
	e := buildCacheEntry(s.k.Prog, key.rel, key.insert)
	if !s.entry.CompareAndSwap(nil, e) {
		e = s.entry.Load() // a concurrent plan built it first
	}
	t.cacheMisses++
	return e
}

// staticPhase returns the phase that decides every update of the entry's
// pattern, if one does: the verdicts of phases 1 and 1.5 do not depend on
// the tuple.
func (c *Checker) staticPhase(e *cacheEntry) (Phase, bool) {
	switch {
	case !e.mentions:
		return PhaseUnaffected, true
	case e.polarity && !c.opts.DisableUpdateOnly:
		return PhasePolarity, true
	}
	return 0, false
}

// check returns the compiled residual check that decides u for a
// stepResidual or stepPinned, and whether it was served rather than
// compiled now (the trace's cache status). A served stepResidual counts
// the hit of the cache lookup it replaces; the lookups count themselves.
// Validity is the lookup's own: the schema version read for this decision
// against the one compiled under.
func (c *Checker) check(s *progStep, u store.Update, schema uint64, t *tally) (*residual.Residual, bool) {
	if s.kind == stepPinned {
		res, hit, _ := c.residuals.For(s.k.flat, u, c.db, c.resOpts)
		return res, hit
	}
	if cc := s.check.Load(); cc != nil && cc.schema == schema {
		t.residualHits++
		return cc.res, true
	}
	// schema was read before the lookup reads it again: a check compiled
	// under a later one is labelled older than it is, and looked up again.
	res, hit, _ := c.residuals.For(s.k.flat, u, c.db, c.resOpts)
	s.check.Store(&compiledCheck{res, schema})
	return res, hit
}
