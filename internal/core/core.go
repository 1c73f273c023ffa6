// Package core is the public facade of the library: a Checker manages a
// set of constraints over a database and applies updates through the
// paper's staged partial-information discipline, consulting as little
// information as each update requires:
//
//  1. Unaffected — the constraint does not mention the updated relation.
//  2. Update-only (Section 4) — rewrite the constraint for the update and
//     test subsumption by the constraints known to hold; no data touched.
//  3. Local data (Sections 5–6) — for conjunctive constraints over a
//     designated local relation, run the complete local test (interval
//     coverage for ICQs, Theorem 5.2 reductions otherwise); only local
//     data touched.
//  4. Global — fall back to full evaluation over all relations.
//
// Each Apply reports, per constraint, which phase decided and with what
// verdict. Every phase decides on the store as it stands before the
// update; an update is written once, after the verdict, if none violates.
package core

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/eval"
	"repro/internal/icq"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/reduction"
	"repro/internal/relation"
	"repro/internal/residual"
	"repro/internal/rewrite"
	"repro/internal/store"
	"repro/internal/subsume"
)

// Phase identifies which level of information decided a constraint.
type Phase int

const (
	// PhaseUnaffected: the update cannot touch the constraint.
	PhaseUnaffected Phase = iota
	// PhasePolarity: monotonicity (Nicolas [1982]) certified it — the
	// update touches the constraint only with the harmless polarity
	// (deleting from a purely positive relation, inserting into a purely
	// negative one).
	PhasePolarity
	// PhaseUpdateOnly: Section 4 rewriting + subsumption certified it.
	PhaseUpdateOnly
	// PhaseLocalData: a Section 5/6 complete local test certified it.
	PhaseLocalData
	// PhaseGlobal: full evaluation was required.
	PhaseGlobal
	// PhaseResidual: a compiled residual check (update-pattern partial
	// evaluation, internal/residual) decided the constraint in place of
	// the phase pipeline. Residuals ask the global phase's question — is
	// the constraint violated once the update is applied? — of the store
	// before the update, and touch only the data the specialized disjuncts
	// mention — often a single indexed probe.
	PhaseResidual

	numPhases = int(PhaseResidual) + 1
)

// String names the phase.
func (p Phase) String() string {
	switch p {
	case PhaseUnaffected:
		return "unaffected"
	case PhasePolarity:
		return "polarity"
	case PhaseUpdateOnly:
		return "update-only"
	case PhaseLocalData:
		return "local-data"
	case PhaseGlobal:
		return "global"
	case PhaseResidual:
		return "residual"
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Verdict is the per-constraint outcome of an update.
type Verdict int

const (
	// Holds: the constraint provably still holds.
	Holds Verdict = iota
	// Violated: the update would violate the constraint (it was not
	// applied).
	Violated
)

func (v Verdict) String() string {
	if v == Violated {
		return "VIOLATED"
	}
	return "holds"
}

// Constraint is a managed constraint with its prepared artifacts.
type Constraint struct {
	Name string
	Prog *ast.Program

	// flat is the constraint as the residual compiler reads it: Prog itself
	// when it defines no helper predicate, else the union of panic rules the
	// helpers unfold into (residual.Flatten). Compiled checks, their
	// certificates and their read claims are derived from it; names, reports
	// and every other phase keep Prog. Nil when Prog is recursive or its
	// expansion is refused: the global phase alone decides the constraint.
	flat *ast.Program

	// cqc is non-nil when the constraint is a single conjunctive rule
	// with exactly one subgoal over a local relation (normalized to the
	// Section 5 form); analysis additionally when it is a canonical ICQ.
	cqc      *ast.CQC
	analysis *icq.Analysis
	// edb lists, sorted, the stored relations an evaluation of the
	// constraint reads.
	edb []string
	// goal is the constraint compiled for the global phase: the admission
	// check, phase-4 evaluations, kept-fixpoint builds and CheckAll run it.
	goal *eval.Goal
	// fix is the evaluation fixpoint kept from the constraint's last
	// global insert decision (nil until the first one, and after a drop);
	// see keptFixpoint.
	fix atomic.Pointer[eval.Fixpoint]
	// cover is the union of the forbidden intervals of the ICQ's local
	// relation, kept from the last local test; see keptCover.
	cover atomic.Pointer[intervalCover]
}

// intervalCover is an ICQ constraint's kept cover and the data version of
// the local relation it was built from.
type intervalCover struct {
	version uint64
	cover   icq.Cover
}

// Decision records how one constraint was dispatched for one update.
type Decision struct {
	Constraint string
	Phase      Phase
	Verdict    Verdict
}

// Witness names, for a constraint that local certificates alone decided
// (residual.DecideWitness), a stored tuple of the updated relation whose
// presence proves the insert safe. No other relation was read for it.
type Witness struct {
	Constraint string
	Tuple      relation.Tuple
}

// witnessOf returns the tuple ws names for the constraint, or nil.
func witnessOf(ws []Witness, constraint string) relation.Tuple {
	for _, w := range ws {
		if w.Constraint == constraint {
			return w.Tuple
		}
	}
	return nil
}

// Report is the outcome of one Apply.
type Report struct {
	Update store.Update
	// Decisions holds one decision per constraint, in name order. It is
	// read-only: it may be shared with the program of the update's pattern
	// and every report that pattern decided alike. Its capacity is capped,
	// so an append copies.
	Decisions []Decision
	// Applied is false when some constraint was violated and the update
	// was not applied.
	Applied bool
	// Witnesses lists, in registration order, the constraints that local
	// certificates alone decided (their Decisions say PhaseResidual, as
	// for every residual check); nil when there is none.
	Witnesses []Witness
}

// Witness returns the tuple that certified the constraint, or nil when a
// certificate did not decide it.
func (r Report) Witness(constraint string) relation.Tuple { return witnessOf(r.Witnesses, constraint) }

// Violations lists the violated constraints' names.
func (r Report) Violations() []string {
	var out []string
	for _, d := range r.Decisions {
		if d.Verdict == Violated {
			out = append(out, d.Constraint)
		}
	}
	return out
}

// patch returns the decisions for judge to write into, cloning the
// program's shared report at the first patch. Programs are immutable and
// replaced whole, so an unpatched report stays valid once returned.
func (r *Report) patch(p *program) []Decision {
	if &r.Decisions[0] == &p.report[0] {
		r.Decisions = slices.Clone(r.Decisions)
	}
	return r.Decisions
}

// Stats aggregates phase usage across updates.
type Stats struct {
	Updates   int
	ByPhase   map[Phase]int
	Rejected  int
	Decisions int
	// CacheHits/CacheMisses count the pattern-level phase memos
	// (cacheEntry): a miss is an entry built when the constraint set
	// changed, a hit an entry a decision or plan was served.
	CacheHits   int64
	CacheMisses int64
	// PlanHits/PlanMisses count the constraints' compiled global-phase
	// evaluations (eval.Goal): a miss is one compiled by AddConstraint, a
	// hit an evaluation that ran from one — the admission check, a phase-4
	// evaluation, a kept-fixpoint build, CheckAll.
	PlanHits   int64
	PlanMisses int64
	// ResidualHits/ResidualMisses/ResidualCompiled count the compiled
	// residual checks: hits the checks decisions and plans ran, misses the
	// constraints a decision left to the phase pipeline because the
	// residual compiler refused their pattern, compiled the checks compiled
	// when the constraint set changed. All zero when
	// Options.DisableResidual is set.
	ResidualHits     int64
	ResidualMisses   int64
	ResidualCompiled int64
	// LocalCertified counts the residual decisions that local certificates
	// alone settled (Report.Witnesses): the share of PhaseResidual
	// decisions that read nothing but the updated relation.
	LocalCertified int64
	// FixpointHits/FixpointRebuilds/FixpointDrops say why global insert
	// decisions were cheap or dear: hits ran only the rounds the inserted
	// tuple seeds on a kept fixpoint, rebuilds evaluated the constraint
	// in full first (the first such decision, and the next one after a
	// drop), drops discarded a kept fixpoint — a write the checker does
	// not account for moved a relation it had read, or the constraint set
	// changed. Global decisions outside the three (deletes, non-monotone
	// inserts, the scan arm) evaluate from scratch and keep nothing. At
	// a coordinator every refresh of a relation a kept fixpoint reads
	// moves its version, so the next decision rebuilds it.
	FixpointHits     int64
	FixpointRebuilds int64
	FixpointDrops    int64
}

// CacheHitRate returns hits/(hits+misses), or 0 before any lookup.
func (s Stats) CacheHitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Options configure a Checker.
type Options struct {
	// LocalRelations are the relations resident at the checking site;
	// complete local tests may read them freely. Nil means every
	// relation is local (a centralized database).
	LocalRelations []string
	// DisableUpdateOnly skips phase 2 (for ablation experiments).
	DisableUpdateOnly bool
	// DisableLocalData skips phase 3 (for ablation experiments).
	DisableLocalData bool
	// Workers does nothing: a decision runs its steps in turn on the
	// caller's goroutine, and there is no dispatch pool left to size. It
	// stays only because the benchmark (bench/) still sets it.
	Workers int
	// DisableCache bypasses the phase memo (cacheEntry) and the static
	// steps, re-deriving every phase-1/1.5/2 verdict per update (the
	// pre-cache behavior; used as the oracle in cross-check tests and for
	// ablation experiments). A pattern no constraint mentions is
	// unaffected either way.
	DisableCache bool
	// DisableIndexes makes every join — global evaluations and residual
	// decisions — keep textual atom order and read whole relations by
	// scan, building and probing no index, instead of bound-first planning
	// with hash-index probes and range steps — the A/B escape hatch behind
	// ccheck -noindex.
	DisableIndexes bool
	// DisablePlanCache does nothing: each constraint's evaluation is
	// compiled once, when it is added, and there is no plan cache left to
	// disable. It stays only because the benchmark's reference checker
	// (bench/oracle.go) still sets it.
	DisablePlanCache bool
	// DisableResidual turns off residual dispatch: every constraint runs
	// the full phase pipeline for every update — the A/B escape hatch
	// behind ccheck -noresidual, and the right setting for experiments
	// that measure the paper's phase distribution itself.
	DisableResidual bool
	// Tracer receives the per-update decision trace: one event per phase
	// attempt per constraint, bracketed by update-begin/update-end. Nil
	// or disabled tracers keep Apply on the uninstrumented path.
	Tracer obs.Tracer
	// Metrics, when non-nil, receives the checker's counters and the
	// Apply latency histogram (metric names in DESIGN.md).
	Metrics *obs.Registry
	// Sharder, when non-nil, names the relations that are mirrors of
	// remote ones and their shard-key columns, for the checker's
	// footprints (see Footprints and Sharder). Set by the netdist
	// coordinator from its placement.
	Sharder Sharder
}

// Checker manages constraints over a store.
//
// Concurrency contract: the constraint-set mutators (AddConstraint,
// RemoveConstraint) require exclusive access. Apply/Check/ApplyBatch may
// run concurrently with each other only for updates whose footprints
// (Footprints) do not conflict — internal/sched enforces exactly this
// discipline, and under it every concurrent schedule is equivalent to
// some sequential one. The stats and trace counters are internally
// synchronized; while an Apply is in flight other goroutines may freely
// read the store (every stage of a decision only reads it; the one write
// follows the verdict, and a Check or a rejected Apply makes none).
type Checker struct {
	db          *store.Store
	opts        Options
	local       map[string]bool // nil: everything local
	constraints []*Constraint

	// statsMu guards stats and byPhase (Stats.ByPhase, as an array):
	// concurrent appliers each add a decision's worth under one hold
	// (record).
	statsMu sync.Mutex
	stats   Stats
	byPhase [numPhases]int

	// programs holds the compiled decision of every update pattern the
	// constraints mention, and unaffected that of every other pattern;
	// refreshSet builds them when the constraint set changes and nothing
	// writes them otherwise. See program.go.
	programs   map[progKey]*program
	unaffected *program
	// progs is the shared {all constraints} slice handed to the phase-2
	// subsumption test (set identity: order and the inclusion of the
	// rewritten constraint itself do not change the verdict), rebuilt by
	// refreshSet instead of per constraint per update.
	progs []*ast.Program
	fp    uint64 // fingerprint of the current constraint set

	// plans counts the compiled global-phase evaluations and evals the
	// evaluations run from them (Stats.PlanMisses, Stats.PlanHits).
	plans, evals atomic.Int64

	// resOpts are the options residuals compile with.
	resOpts residual.Options
	// localCertified counts certificate-only decisions
	// (Stats.LocalCertified).
	localCertified atomic.Int64

	// fix counts what became of the constraints' kept fixpoints, by
	// fixEvent (Stats.Fixpoint*).
	fix [3]atomic.Int64

	// traceSeq numbers emitted trace events; met holds the registry
	// handles (nil when Options.Metrics is nil). See trace.go.
	traceSeq atomic.Uint64
	met      *checkerMetrics
}

// New creates a Checker over db.
func New(db *store.Store, opts Options) *Checker {
	c := &Checker{db: db, opts: opts}
	if opts.Metrics != nil {
		c.met = newCheckerMetrics(opts.Metrics)
	}
	if opts.LocalRelations != nil {
		c.local = map[string]bool{}
		for _, n := range opts.LocalRelations {
			c.local[n] = true
		}
	}
	if !opts.DisableResidual {
		// A residual answers exactly like the evaluation arm it replaces;
		// local certificates are phase 3's, and only where something is
		// remote.
		c.resOpts = residual.Options{DisableIndexes: opts.DisableIndexes}
		if c.local != nil && !opts.DisableLocalData {
			c.resOpts.Local = c.isLocal
		}
	}
	c.refreshSet()
	return c
}

// DB returns the underlying store.
func (c *Checker) DB() *store.Store { return c.db }

// Stats returns aggregate phase statistics. The ByPhase map is a copy:
// mutating it does not touch the checker's live counters.
func (c *Checker) Stats() Stats {
	c.statsMu.Lock()
	s := c.stats
	s.ByPhase = map[Phase]int{}
	for p, n := range c.byPhase {
		if n > 0 {
			s.ByPhase[Phase(p)] = n
		}
	}
	c.statsMu.Unlock()
	s.PlanHits, s.PlanMisses = c.evals.Load(), c.plans.Load()
	s.LocalCertified = c.localCertified.Load()
	s.FixpointHits, s.FixpointRebuilds, s.FixpointDrops = c.fix[fixHit].Load(), c.fix[fixRebuild].Load(), c.fix[fixDrop].Load()
	return s
}

// ResetStats zeroes every aggregate counter — the per-phase decision
// counts, the memo, plan and residual counters, the certificate and
// fixpoint counters — without touching what is compiled or kept, so a
// warmed checker can report one run's statistics in isolation (ccheck
// -repeat resets between runs).
func (c *Checker) ResetStats() {
	c.statsMu.Lock()
	c.stats, c.byPhase = Stats{}, [numPhases]int{}
	c.statsMu.Unlock()
	c.plans.Store(0)
	c.evals.Store(0)
	c.localCertified.Store(0)
	for i := range c.fix {
		c.fix[i].Store(0)
	}
}

// refreshSet rebuilds the shared constraint-program slice, the set
// fingerprint and every program after the constraint set changed: which
// steps there are, their checks, their phase memos and their place in the
// report all derive from the set.
func (c *Checker) refreshSet() {
	c.progs = make([]*ast.Program, len(c.constraints))
	h := fnv.New64a()
	for i, k := range c.constraints {
		c.progs[i] = k.Prog
		h.Write([]byte(k.Name))
		h.Write([]byte{0})
		h.Write([]byte(k.Prog.String()))
		h.Write([]byte{0})
	}
	c.fp = h.Sum64()
	c.compilePrograms()
	// A kept fixpoint is private to its constraint and would stay right,
	// but nothing else survives a change of the set: drop them too, so
	// what a checker holds depends only on the decisions since.
	for _, k := range c.constraints {
		c.dropFixpoint(k)
	}
}

// Constraints returns the managed constraints' names in order.
func (c *Checker) Constraints() []string {
	var out []string
	for _, k := range c.constraints {
		out = append(out, k.Name)
	}
	return out
}

// AddConstraintSource parses and adds a constraint program.
func (c *Checker) AddConstraintSource(name, src string) error {
	prog, err := parser.ParseProgram(src)
	if err != nil {
		return err
	}
	return c.AddConstraint(name, prog)
}

// AddConstraint adds a constraint program (goal predicate panic). The
// database must currently satisfy it: the staged tests all assume
// constraints held before each update.
func (c *Checker) AddConstraint(name string, prog *ast.Program) error {
	if err := prog.Validate(); err != nil {
		return err
	}
	goal := prog.RulesFor(ast.PanicPred)
	if len(goal) == 0 {
		return fmt.Errorf("core: constraint %s has no %s rule", name, ast.PanicPred)
	}
	for _, k := range c.constraints {
		if k.Name == name {
			return fmt.Errorf("core: duplicate constraint name %q", name)
		}
	}
	g, err := eval.CompileGoal(prog, ast.PanicPred, c.evalOpts())
	if err != nil {
		return err
	}
	c.plans.Add(1)
	k := &Constraint{Name: name, Prog: prog, flat: residual.Flatten(prog), edb: prog.EDBPreds(), goal: g}
	if c.holds(k, nil, store.Update{}) {
		return fmt.Errorf("core: constraint %s is already violated by the current database", name)
	}
	c.prepare(k)
	c.constraints = append(c.constraints, k)
	c.refreshSet()
	return nil
}

// prepare derives the CQC/ICQ artifacts when the constraint has the
// right shape: a single positive conjunctive rule with exactly one
// subgoal over a local relation and every other ordinary subgoal over
// non-local relations.
func (c *Checker) prepare(k *Constraint) {
	if len(k.Prog.Rules) != 1 {
		return
	}
	r := k.Prog.Rules[0]
	if r.HasNegation() {
		return
	}
	localPred := ""
	remoteOK := true
	for _, a := range r.PositiveAtoms() {
		if c.isLocal(a.Pred) {
			if localPred != "" {
				remoteOK = false // two local subgoals: not the CQC shape
				break
			}
			localPred = a.Pred
		}
	}
	if !remoteOK || localPred == "" {
		return
	}
	cqc, err := ast.NormalizeCQC(r, localPred)
	if err != nil {
		return
	}
	k.cqc = cqc
	if a, err := icq.Analyze(cqc); err == nil {
		k.analysis = a
	}
}

// evalOpts translates the checker options into evaluation options for
// the global phase (constraint admission and CheckAll included).
func (c *Checker) evalOpts() eval.Options {
	return eval.Options{DisableIndexes: c.opts.DisableIndexes}
}

// holds runs the constraint's compiled evaluation: whether panic is
// derivable once prior and then u are applied to the store.
func (c *Checker) holds(k *Constraint, prior []store.Update, u store.Update) bool {
	c.evals.Add(1)
	return k.goal.HoldsAfter(c.db, prior, u)
}

// isLocal reports whether the relation is resident at the checking site.
func (c *Checker) isLocal(rel string) bool {
	if c.local == nil {
		return true
	}
	return c.local[rel]
}

// stageOne runs the read-only phases 1–3 for one constraint: it touches
// no Checker state besides the entry's (internally synchronized) memo and
// store reads, so concurrent decisions may run it for the same
// constraint at once. e is the constraint's entry for u's pattern —
// nil under Options.DisableCache, where every verdict is derived here. It
// returns the deciding phase, or decided false when the constraint needs
// a global evaluation. With tr non-nil it appends one trace event per
// phase attempt (the tracing path; nil keeps the hot path free of clock
// reads and allocations).
func (c *Checker) stageOne(k *Constraint, e *cacheEntry, prior []store.Update, u store.Update, tr *[]obs.Event) (Phase, bool) {
	entryCache := obs.CacheHit // cache status of the entry-level phases 1/1.5
	if e == nil {
		entryCache = obs.CacheOff
	}
	// Phase 1: unaffected.
	start := traceStart(tr)
	var unaffected bool
	if e != nil {
		unaffected = !e.mentions
	} else {
		unaffected = !k.Prog.Mentions(u.Relation)
	}
	phaseAttempt(tr, k.Name, PhaseUnaffected, unaffected, entryCache, start)
	if unaffected {
		return PhaseUnaffected, true
	}
	if !c.opts.DisableUpdateOnly {
		// Phase 1.5: polarity (monotonicity). Uses only the constraint
		// text and the update's direction.
		start = traceStart(tr)
		pol := false
		if e != nil {
			pol = e.polarity
		} else {
			pol = classify.UpdateMonotoneSafe(k.Prog, ast.PanicPred, u.Relation, u.Insert)
		}
		phaseAttempt(tr, k.Name, PhasePolarity, pol, entryCache, start)
		if pol {
			return PhasePolarity, true
		}
		// Phase 2: constraints + update only (Section 4 rewriting +
		// subsumption). The verdict depends on the tuple only through its
		// verdict-relevant positions, so the entry memoizes it per
		// projected tuple key.
		start = traceStart(tr)
		certified := false
		phase2Cache := obs.CacheOff
		if e != nil {
			var buf [64]byte
			key := e.appendProjKey(buf[:0], u.Tuple)
			var known bool
			certified, known = e.phase2Get(key)
			phase2Cache = obs.CacheHit
			if !known {
				phase2Cache = obs.CacheMiss
				res, err := rewrite.UpdateSafeAmong(k.Prog, c.progs, u)
				certified = err == nil && res.Verdict == subsume.Yes
				e.phase2Put(key, certified)
			}
		} else {
			res, err := rewrite.UpdateSafeAmong(k.Prog, c.progs, u)
			certified = err == nil && res.Verdict == subsume.Yes
		}
		phaseAttempt(tr, k.Name, PhaseUpdateOnly, certified, phase2Cache, start)
		if certified {
			return PhaseUpdateOnly, true
		}
	}
	// Phase 3: local data. (The equality certificate, phase 3's other
	// test, is compiled into the constraint's residual check: decide and
	// Plan ask that ahead of this ladder.) It reads the stored local
	// relation, so not for a member of a batch after an earlier member
	// wrote that relation.
	if !c.opts.DisableLocalData && u.Insert && k.cqc != nil && k.cqc.LocalPred == u.Relation &&
		!slices.ContainsFunc(prior, func(w store.Update) bool { return w.Relation == u.Relation }) {
		start = traceStart(tr)
		ok, err := c.localTest(k, u.Tuple)
		phaseAttempt(tr, k.Name, PhaseLocalData, err == nil && ok, "", start)
		if err == nil && ok {
			return PhaseLocalData, true
		}
	}
	return PhaseGlobal, false
}

// Apply pushes one update through the staged pipeline. On any violation
// the update is not applied and the report's Applied is false.
func (c *Checker) Apply(u store.Update) (Report, error) { return c.one(u, true) }

// dynOutcome is what became of one stepDynamic of a decision: the phase
// that certified it or, where none did, the verdict of the kept fixpoint
// or the evaluation.
type dynOutcome struct {
	phase   Phase
	decided bool
	trace   []obs.Event
	// fix, when non-nil, is the constraint's kept fixpoint, whose seeded
	// rounds decided in place of an evaluation; hit its cache status.
	fix *eval.Fixpoint
	hit bool
	bad bool
	dur time.Duration
}

// runDynamic settles the program's dynamic steps for u, in turn:
// phases 1–3 and, for a constraint they leave undecided, phase 4 against
// the store with prior and u pending — seeded rounds on a kept fixpoint
// (rebuilt here where it has to be) or a full evaluation. What the phases
// decided is written into the report and the tally here; the caller takes
// the phase-4 outcomes in constraint order. sq is the batch u is a member
// of, nil outside one.
func (c *Checker) runDynamic(p *program, prior []store.Update, u store.Update, commit, tracing bool, rep *Report, t *tally, sq sequence) []dynOutcome {
	out := make([]dynOutcome, len(p.dynamic))
	for j, i := range p.dynamic {
		s, o := &p.steps[i], &out[j]
		var tr *[]obs.Event
		if tracing {
			tr = &o.trace
		}
		if o.phase, o.decided = c.stageOne(s.k, s.entry, prior, u, tr); o.decided {
			rep.patch(p)[s.slot].Phase = o.phase
			t.byPhase[o.phase]++
			continue
		}
		var start time.Time
		if tracing {
			start = time.Now()
		}
		if u.Insert && (sq == nil || !sq[i].out) {
			o.fix, o.hit = c.keptFixpoint(s.k, u.Relation)
			if sq != nil && sq[i].fix != nil && o.fix != sq[i].fix {
				// Nothing is written before the verdict, so the fixpoint an
				// earlier member opened is the one kept: one built since lacks
				// what that member derived.
				o.fix = nil
			}
		}
		if o.fix != nil {
			o.bad = o.fix.Insert(prior, u.Relation, u.Tuple, commit)
		} else {
			o.bad = c.holds(s.k, prior, u)
		}
		if tracing {
			o.dur = time.Since(start)
		}
	}
	return out
}

// judge decides u on the store with the updates prior pending: the
// verdict of one member of a batch, made with nothing written. It
// interprets the program of u's pattern on the calling goroutine: static
// steps are already in the report, a compiled check is one probe, and
// dynamic steps run the phases (runDynamic). Every step answers "would the
// store violate the constraint once prior and u are applied" reading the
// store as it stands — the evaluators adjust their reads of the updated
// relations (residual.DecideWitness, eval.GoalHoldsAfter,
// eval.Fixpoint.Insert). A committing decision holds overlays on the
// fixpoints that decide it: when u is admitted judge returns them in dyn
// (nil when there are none) for the caller to fold or drop, and drops
// them itself otherwise. A check holds none (Insert drops them): checks
// run concurrently, and none may touch rows it did not derive. sq is the
// batch u is a member of, nil outside one; judge notes what u did to it.
// The decision's stats, trace and latency metric end with its verdict.
func (c *Checker) judge(prior []store.Update, u store.Update, commit bool, planned []Witness, sq sequence) (Report, []dynOutcome, error) {
	rep := Report{Update: u, Applied: true}
	t := tally{updates: 1}
	var applyStart time.Time
	if c.met != nil {
		c.met.updates.Inc()
		applyStart = time.Now()
	}
	tracing := c.tracing()
	uStr := ""
	var probes0 int64
	if tracing {
		uStr = u.String()
		probes0 = relation.IndexProbes()
		c.emit(uStr, obs.Event{Kind: obs.KindUpdateBegin, Constraints: len(c.constraints)})
	}
	// fail ends a decision no verdict was reached for.
	fail := func(err error) (Report, []dynOutcome, error) {
		c.record(&t)
		if tracing {
			c.emit(uStr, obs.Event{Kind: obs.KindUpdateEnd, Err: err.Error()})
		}
		return rep, nil, err
	}
	// A tuple the stored relation cannot take is refused, not decided — nor
	// one of another arity than an earlier member's insert into it.
	if err := c.db.Accepts(u.Relation, len(u.Tuple)); u.Insert && err != nil {
		return fail(err)
	}
	if u.Insert && slices.ContainsFunc(prior, func(w store.Update) bool {
		return w.Insert && w.Relation == u.Relation && len(w.Tuple) != len(u.Tuple)
	}) {
		return fail(fmt.Errorf("core: insert %s: the batch inserts into %s with another arity", u, u.Relation))
	}
	p := c.programOf(u)
	if n := len(p.report); n > 0 {
		rep.Decisions = p.report[:n:n]
	}
	t.decisions = len(p.steps)
	t.byPhase = p.static
	t.cacheHits = int64(p.memos)
	t.residualHits, t.residualMisses = int64(p.checks), int64(p.ineligible)
	var dyn []dynOutcome
	if len(p.dynamic) > 0 {
		dyn = c.runDynamic(p, prior, u, commit, tracing, &rep, &t, sq)
	}
	if tracing {
		c.emitAttempts(p, dyn, u, uStr)
	}
	// The compiled checks and the phase-4 outcomes, in constraint order.
	violated := false
	j := 0
	for i := range p.steps {
		s := &p.steps[i]
		var res *residual.Residual
		var o *dynOutcome
		phase, bad, hit := PhaseResidual, false, true
		var witness relation.Tuple
		var dur time.Duration
		switch s.kind {
		case stepStatic:
			continue
		case stepDynamic:
			o = &dyn[j]
			j++
			if o.decided {
				continue
			}
			phase, bad, hit, dur = PhaseGlobal, o.bad, o.hit, o.dur
		default:
			res = s.check
			var start time.Time
			if tracing {
				start = time.Now()
			}
			// The plan's certificate stands; without one the check runs.
			if witness = witnessOf(planned, s.k.Name); witness == nil {
				bad, witness = res.DecideWitness(c.db, prior, u.Tuple)
			}
			if tracing {
				dur = time.Since(start)
			}
			if witness != nil {
				rep.Witnesses = append(rep.Witnesses, Witness{s.k.Name, witness})
				c.localCertified.Add(1)
				if c.met != nil {
					c.met.certified.Inc()
				}
			}
		}
		v := Holds
		if bad {
			v, violated = Violated, true
			rep.patch(p)[s.slot].Verdict = Violated
		}
		t.byPhase[phase]++
		if tracing {
			e := obs.Event{
				Kind:       obs.KindPhase,
				Constraint: s.k.Name,
				Phase:      phase.String(),
				Decided:    true,
				Verdict:    v.String(),
				Duration:   dur,
			}
			if res != nil || o.fix != nil {
				e.Cache = obs.CacheMiss
				if hit {
					e.Cache = obs.CacheHit
				}
			}
			if witness != nil {
				e.Certificate, e.Witness = obs.CacheHit, u.Relation+witness.String()
			} else if res != nil && res.Certificates() > 0 {
				e.Certificate = obs.CacheMiss
			}
			if res == nil {
				e.Relations = c.remoteRelations(s.k)
			}
			c.emit(uStr, e)
		}
	}
	if violated {
		rep.Applied = false
		t.rejected = 1
		if c.met != nil {
			c.met.rejected.Inc()
		}
	}
	if commit && violated {
		closeAll(dyn, false, nil)
	}
	if !commit || violated {
		dyn = nil
	}
	if sq != nil && !violated {
		sq.admitted(c.constraints, p, u, dyn)
	}
	c.record(&t)
	if tracing {
		// The probe delta is process-wide, so concurrent appliers blur it;
		// under the decision server's single mutation worker it is exact.
		c.emit(uStr, obs.Event{
			Kind: obs.KindUpdateEnd, Applied: rep.Applied, Rejected: rep.Violations(),
			IndexProbes: relation.IndexProbes() - probes0,
		})
	}
	if c.met != nil {
		c.met.applySeconds.Observe(time.Since(applyStart).Seconds())
		c.met.sampleProcessCounters()
	}
	return rep, dyn, nil
}

// keptFixpoint returns the fixpoint that can decide an insert into rel
// for the constraint by delta evaluation — hit when the kept one still
// stands, a miss when it had to be built from the store first. A kept
// fixpoint that a write the checker did not account for has overtaken is
// dropped here: validity is a version check per decision, never an
// assumption. It returns nil when the decision must be evaluated from
// scratch: the insert can take derived facts away (Fixpoint.Seedable), or
// the checker runs the scan arm.
func (c *Checker) keptFixpoint(k *Constraint, rel string) (fix *eval.Fixpoint, hit bool) {
	f := k.fix.Load()
	if f != nil && !f.Valid() {
		c.dropFixpoint(k)
		f = nil
	}
	if f != nil {
		if !f.Seedable(rel) {
			return nil, false
		}
		c.countFix(fixHit)
		return f, true
	}
	c.evals.Add(1)
	f = k.goal.Fixpoint(c.db, rel)
	if f == nil {
		return nil, false
	}
	k.fix.Store(f)
	c.countFix(fixRebuild)
	return f, false
}

// dropFixpoint discards the constraint's kept fixpoint, if it has one.
func (c *Checker) dropFixpoint(k *Constraint) {
	if k.fix.Swap(nil) != nil {
		c.countFix(fixDrop)
	}
}

// fixEvent is something that happened to a kept fixpoint.
type fixEvent int

const (
	fixHit fixEvent = iota
	fixRebuild
	fixDrop
)

// countFix counts one fixpoint event in the stats and, when a registry
// is attached, in the cc_checker_fixpoint_*_total counters.
func (c *Checker) countFix(e fixEvent) {
	c.fix[e].Add(1)
	if c.met != nil {
		c.met.fix[e].Inc()
	}
}

// localTest runs the complete local test for an insertion into the
// constraint's local relation: a probe of the kept interval cover for
// canonical ICQs, the O(|L|) Theorem 5.2 reduction containment for the
// other CQCs. It reads only the local relation.
func (c *Checker) localTest(k *Constraint, t relation.Tuple) (bool, error) {
	if k.analysis != nil {
		cover, err := c.keptCover(k)
		if err != nil {
			return false, err
		}
		return k.analysis.CertifyAgainst(t, cover)
	}
	return reduction.LocalTest(k.cqc, t, c.db.Tuples(k.cqc.LocalPred))
}

// keptCover returns the union of the forbidden intervals of the ICQ's
// local relation, rebuilt only when the relation has moved since the
// cover was kept. Validity is the rule of the kept fixpoints: the
// relation's data version, read before its tuples — a write that lands
// in between leaves a cover labelled older than it is, which the next
// decision rebuilds; a stale cover is never labelled fresh. (A checker's
// store never changes, and a swapped-in relation continues its
// predecessor's version, so the version alone identifies the contents.)
func (c *Checker) keptCover(k *Constraint) (icq.Cover, error) {
	version := c.db.DataVersion(k.cqc.LocalPred)
	if kept := k.cover.Load(); kept != nil && kept.version == version {
		return kept.cover, nil
	}
	cover, err := k.analysis.CoverOf(c.db.Tuples(k.cqc.LocalPred))
	if err != nil {
		return nil, err
	}
	k.cover.Store(&intervalCover{version: version, cover: cover})
	return cover, nil
}

// CheckAll fully evaluates every constraint and returns the names of the
// violated ones (normally empty: Apply never admits a violating update).
func (c *Checker) CheckAll() ([]string, error) {
	var out []string
	for _, k := range c.constraints {
		if c.holds(k, nil, store.Update{}) {
			out = append(out, k.Name)
		}
	}
	return out, nil
}

// RedundantConstraints returns the names of managed constraints that are
// subsumed by the rest of the set (Section 3): they can never be violated
// while the others hold, so checking them is wasted work. The checker
// keeps them registered — dropping them is the caller's decision.
func (c *Checker) RedundantConstraints() ([]string, error) {
	progs := make([]*ast.Program, len(c.constraints))
	for i, k := range c.constraints {
		progs[i] = k.Prog
	}
	idx, err := subsume.Redundant(progs)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, i := range idx {
		out = append(out, c.constraints[i].Name)
	}
	return out, nil
}

// RemoveConstraint unregisters a constraint by name.
func (c *Checker) RemoveConstraint(name string) bool {
	for i, k := range c.constraints {
		if k.Name == name {
			c.dropFixpoint(k)
			c.constraints = append(c.constraints[:i], c.constraints[i+1:]...)
			c.refreshSet()
			return true
		}
	}
	return false
}
