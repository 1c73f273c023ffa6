package core

import (
	"slices"
	"sort"

	"repro/internal/residual"
	"repro/internal/store"
)

// The paper's first two levels of information — the constraints alone
// (Section 3) and the constraints plus the update (Section 4) — are
// functions of the update pattern, not of the tuple. A program is what
// they say about one pattern: which constraints the pattern cannot touch,
// which a compiled residual check decides (and the check itself), which
// still need the tuple-dependent tests, what a decision may read, and
// where each lands in the name-ordered report. Every pattern the
// constraints mention is compiled when the constraint set changes
// (refreshSet); judge and Plan interpret the programs, Footprints
// instantiates their reads, and only the data probe is left for run time.

// progKey identifies an update pattern. The arity is part of it: a
// residual is compiled for the occurrences of that arity alone, and a
// malformed tuple must share nothing with a well-formed one.
type progKey struct {
	rel    string
	insert bool
	arity  int
}

// stepKind says how a decision settles one constraint.
type stepKind uint8

const (
	// stepStatic: the constraint does not mention the pattern, or the
	// direction is monotone-safe. The verdict is in the program's report
	// and nothing runs.
	stepStatic stepKind = iota
	// stepResidual: the compiled check of the pattern decides.
	stepResidual
	// stepDynamic: the tuple-dependent tests — Section 4 as the entry's
	// compiled order-type guard, the Section 5 local test — and, where they
	// do not certify, the kept fixpoint or an evaluation (stageOne,
	// runDynamic).
	stepDynamic
)

// progStep is one constraint's part in a program.
type progStep struct {
	k    *Constraint
	kind stepKind
	// slot is the constraint's index in the name-ordered report.
	slot int
	// phase is what decided a stepStatic.
	phase Phase
	// check is a stepResidual's compiled check.
	check *residual.Residual
	// entry holds the pattern-level phase-1/1.5 verdicts and the phase-2
	// guard; nil under Options.DisableCache.
	entry *cacheEntry
	// rejected is, for a step that can reject, the program's report with
	// the step's slot Violated: a rejection switches to it instead of
	// cloning (Report.reject).
	rejected []Decision
}

// program is the compiled decision of one update pattern, valid for the
// constraint set it was compiled for. It is immutable once compiled, its
// entries included.
type program struct {
	// steps in registration order.
	steps []progStep
	// report in constraint-name order, as a decision with no violation
	// leaves it: a decision returns it as it stands and clones it only to
	// patch what it finds (Report.patch).
	report []Decision
	// dynamic indexes the stepDynamic steps.
	dynamic []int
	// static counts the stepStatic steps by deciding phase.
	static [numPhases]int
	// What serving the program counts: memos, the entries of the static and
	// dynamic steps (Stats.CacheHits); checks, the compiled checks
	// (Stats.ResidualHits); ineligible, the steps the residual compiler
	// refused (Stats.ResidualMisses).
	memos, checks, ineligible int
	// claims are what a decision of the pattern may read, in step order
	// (footprint.go); wire says one of them is of a remote relation.
	claims []claim
	wire   bool
}

// tally is what one decision or plan adds to the checker's counters,
// added under one hold of statsMu (record).
type tally struct {
	updates, decisions, rejected int
	byPhase                      [numPhases]int
	cacheHits                    int64
	residualHits, residualMisses int64
}

// record adds t to the statistics.
func (c *Checker) record(t *tally) {
	c.statsMu.Lock()
	c.stats.Updates += t.updates
	c.stats.Decisions += t.decisions
	c.stats.Rejected += t.rejected
	for p, n := range t.byPhase {
		c.byPhase[p] += n
	}
	c.stats.CacheHits += t.cacheHits
	c.stats.ResidualHits += t.residualHits
	c.stats.ResidualMisses += t.residualMisses
	c.statsMu.Unlock()
}

// programOf returns the program of u's pattern: the compiled one when a
// constraint mentions the pattern, else the unaffected program — u matches
// no atom of any constraint (and an insert that the stored relation's
// arity refuses never gets this far: store.Accepts).
func (c *Checker) programOf(u store.Update) *program {
	if p := c.programs[progKey{u.Relation, u.Insert, len(u.Tuple)}]; p != nil {
		return p
	}
	return c.unaffected
}

// compilePrograms compiles the program of every pattern the constraints
// mention — each relation and arity of an atom, under both polarities —
// and the unaffected program, and counts what it built: the entries and
// the compiled checks.
func (c *Checker) compilePrograms() {
	keys := map[progKey]bool{}
	for _, k := range c.constraints {
		for _, r := range k.Prog.Rules {
			keys[progKey{r.Head.Pred, true, len(r.Head.Args)}] = true
			for _, l := range r.Body {
				if !l.IsComp() {
					keys[progKey{l.Atom.Pred, true, len(l.Atom.Args)}] = true
				}
			}
		}
	}
	c.programs = make(map[progKey]*program, 2*len(keys))
	var entries, checks int64
	for key := range keys {
		for _, insert := range []bool{true, false} {
			key.insert = insert
			p := c.compile(key)
			c.programs[key] = p
			checks += int64(p.checks)
			for i := range p.steps {
				if p.steps[i].entry != nil {
					entries++
				}
			}
		}
	}
	c.unaffected = c.compile(progKey{})
	c.statsMu.Lock()
	c.stats.CacheMisses += entries
	c.stats.ResidualCompiled += checks
	c.statsMu.Unlock()
}

// compile derives the pattern's program from the constraint set; the zero
// key compiles the unaffected program, every step static. It reads no
// data. The static phases come first: a constraint that does not mention
// the relation, or that the direction cannot violate, needs no check —
// under Options.DisableCache the phases re-derive that per update. A
// compiled check decides the rest where the constraint has a flat form
// (Constraint.flat). Claims do not depend on Options.DisableCache: a step
// the pattern-level phases decide claims nothing, whether it is static or
// they decide it per update.
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
		if key.rel == "" {
			// Static under Options.DisableCache too: the phases would find
			// the same on every update.
			s.kind, s.phase, d.Phase, s.entry = stepStatic, PhaseUnaffected, PhaseUnaffected, unaffectedEntry
			p.static[PhaseUnaffected]++
			if !c.opts.DisableCache {
				p.memos++
			}
			continue
		}
		e := buildCacheEntry(k.Prog, key.rel, key.insert)
		phase, static := c.staticPhase(e)
		if !c.opts.DisableCache {
			s.entry = e
		}
		// Phase 2 is compiled where a decision or a plan asks it.
		guard := !static && !c.opts.DisableCache && !c.opts.DisableUpdateOnly
		if !static && !c.opts.DisableResidual {
			if sh := residual.DeriveShape(k.flat, key.rel, key.insert); sh.Eligible {
				s.kind, d.Phase = stepResidual, PhaseResidual
				s.check = residual.Compile(k.flat, key.rel, key.insert, key.arity, c.resOpts)
				p.checks++
				c.addClaims(p, s, key)
				if guard && c.partial() {
					e.guard = c.compileGuard(k, key)
				}
				continue
			}
			p.ineligible++
		}
		if guard {
			e.guard = c.compileGuard(k, key)
		}
		if !c.opts.DisableCache {
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
	for i := range p.steps {
		if s := &p.steps[i]; s.kind != stepStatic {
			s.rejected = slices.Clip(slices.Clone(p.report))
			s.rejected[s.slot].Verdict = Violated
		}
	}
	return p
}

// shares reports whether ds is one of the program's reports.
func (p *program) shares(ds []Decision) bool {
	if &ds[0] == &p.report[0] {
		return true
	}
	for i := range p.steps {
		if r := p.steps[i].rejected; r != nil && &r[0] == &ds[0] {
			return true
		}
	}
	return false
}

// partial reports whether the checker has partial information: something
// is remote, and a coordinator asks Plan which constraints the phases
// decide before it reads a site. Plan runs the phases on an uncertified
// compiled check, so only then does a compiled check's step get its
// phase-2 guard. An embedded checker's compiled checks decide every
// update; a Plan on one runs their phases without phase 2.
func (c *Checker) partial() bool {
	return c.local != nil || c.opts.Sharder != nil
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
