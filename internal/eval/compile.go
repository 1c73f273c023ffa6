package eval

import (
	"hash/fnv"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/store"
)

// Compile-once evaluation. Every piece of per-call preparation the
// evaluator used to redo on each Eval/GoalHoldsAfter — goal pruning,
// validation, stratification, bound-first join planning, subgoal-arity
// checks against the database — is hoisted into a compiled object that
// depends only on (program, goal, index mode, store shape). A PlanCache
// memoizes compiled objects across the update stream, so the steady
// state of Checker.Apply runs ready-made plans: the per-update cost is
// the join itself, not re-deriving how to join.

// stratumPlan is one stratum with its evaluation bookkeeping
// precomputed: the slots of its predicates, its rules with their plans
// and positive body literals, and whether it is recursive (needs
// semi-naive iteration).
type stratumPlan struct {
	slots     []int
	rules     []rulePlan
	recursive bool
}

// rulePlan is one rule of a stratum: the rule, its from-scratch plan — nil when a
// stored relation of another arity makes the body underivable — and the
// positive body literals a semi-naive round may take as its delta.
type rulePlan struct {
	rule *ast.Rule
	plan *Plan
	occs []occurrence
}

// occurrence is a positive body literal: its body index, its predicate
// (by slot when derived, -1 for a stored relation), whether it is one of
// the stratum's own predicates, and id, which names the plan that starts
// from it (compiled.deltaPlans).
type occurrence struct {
	id      int
	pos     int
	pred    string
	slot    int
	inLayer bool
}

// compiled is a ready-to-run evaluation: the (goal-pruned) program, its
// strata, and one join plan per rule with the subgoal arity checks
// already folded in. A compiled object is immutable after construction
// and safe to share across concurrent evaluations.
type compiled struct {
	prog *ast.Program
	// noRules marks a goal with no deriving rules after pruning: the
	// goal is trivially underivable and nothing else is compiled.
	noRules bool
	strata  []stratumPlan
	// goalLevel is the stratum index of the goal predicate and goalSlot
	// its slot (both -1 when no goal): evaluation stops at the first
	// derivation in that stratum.
	goalLevel, goalSlot int
	// slot numbers the derived predicates: a run holds its derived
	// relations in a slice indexed by slot, and plans name them by slot.
	// arity and probed are per slot: the predicate's arity and the column
	// sets the from-scratch plans probe it on.
	slot   map[string]int
	arity  []int
	probed [][][]int
	// occs counts the occurrences of all strata.
	occs int

	// What a kept fixpoint (fixpoint.go) adds, built by its first build.
	// deltaPlans: per occurrence, the plan of its rule that starts from
	// it. monotone: per stored relation the program reads, whether no
	// predicate that depends on it is read under negation — then the
	// fixpoint after an insert is the one before plus whatever the new
	// tuple derives, and every negated subgoal reads as it did. feeds: the
	// stored relations some rule-read derived predicate depends on — the
	// only ones whose writes can make kept rows that a delta-seeded run
	// consults wrong.
	deltaOnce  sync.Once
	deltaPlans []*Plan
	monotone   map[string]bool
	feeds      []string
}

// compile builds the ready-to-run evaluation for prog (pruned to goal
// when goal is non-empty) against the current shape of db. The database
// matters only through its shape — which relations exist, with which
// arities — never through its tuples, which is what makes compiled
// objects cacheable across the update stream.
func compile(prog *ast.Program, db *store.Store, goal string, opts Options) (*compiled, error) {
	c := &compiled{prog: prog, goalLevel: -1, goalSlot: -1}
	if goal != "" {
		c.prog = pruneToGoal(prog, goal)
		if len(c.prog.RulesFor(goal)) == 0 {
			c.noRules = true
			return c, nil
		}
	}
	if err := c.prog.Validate(); err != nil {
		return nil, err
	}
	layers, err := Stratify(c.prog)
	if err != nil {
		return nil, err
	}
	arity := c.prog.Preds()
	c.slot = map[string]int{}
	for _, layer := range layers {
		for _, p := range layer {
			c.slot[p] = len(c.arity)
			c.arity = append(c.arity, arity[p])
		}
	}
	c.probed = make([][][]int, len(c.arity))
	for i, layer := range layers {
		sp := stratumPlan{}
		inLayer := map[string]bool{}
		for _, p := range layer {
			inLayer[p] = true
			sp.slots = append(sp.slots, c.slot[p])
			if p == goal {
				c.goalLevel, c.goalSlot = i, c.slot[p]
			}
		}
		for _, p := range layer {
			for _, r := range c.prog.RulesFor(p) {
				rp := rulePlan{rule: r, plan: compileRule(r, c.slot, db, opts.DisableIndexes, -1)}
				for bi, l := range r.Body {
					if !l.IsPos() {
						continue
					}
					slot, derived := c.slot[l.Atom.Pred]
					if !derived {
						slot = -1
					}
					rp.occs = append(rp.occs, occurrence{id: c.occs, pos: bi, pred: l.Atom.Pred, slot: slot, inLayer: inLayer[l.Atom.Pred]})
					c.occs++
					sp.recursive = sp.recursive || inLayer[l.Atom.Pred]
				}
				c.noteProbes(rp.plan)
				sp.rules = append(sp.rules, rp)
			}
		}
		c.strata = append(c.strata, sp)
	}
	return c, nil
}

// noteProbes adds the column sets p probes derived predicates on to
// probed, the indexes every rowSet of those predicates is built with (a
// set that is there twice gets one index).
func (c *compiled) noteProbes(p *Plan) {
	if p == nil {
		return
	}
	for _, st := range p.steps {
		if st.kind == stepPos && st.slot >= 0 && len(st.probeCols) > 0 {
			c.probed[st.slot] = append(c.probed[st.slot], st.probeCols)
		}
	}
}

// newSet returns an empty rowSet for the derived predicate in slot.
func (c *compiled) newSet(slot int) *rowSet { return newRowSet(c.arity[slot], c.probed[slot]) }

// prepareDelta builds deltaPlans, monotone and feeds, once.
func (c *compiled) prepareDelta(db *store.Store) {
	c.deltaOnce.Do(func() {
		idb := c.prog.IDBPreds()
		c.deltaPlans = make([]*Plan, c.occs)
		c.monotone = make(map[string]bool)
		for _, sp := range c.strata {
			for _, rp := range sp.rules {
				for _, o := range rp.occs {
					c.deltaPlans[o.id] = compileRule(rp.rule, c.slot, db, false, o.pos)
				}
			}
		}
		// bodyRead are the derived predicates some rule reads: the only
		// kept rows a delta-seeded run ever consults.
		bodyRead := map[string]bool{}
		for _, r := range c.prog.Rules {
			for _, l := range r.Body {
				if !l.IsComp() && idb[l.Atom.Pred] {
					bodyRead[l.Atom.Pred] = true
				}
			}
		}
		for _, rel := range c.prog.EDBPreds() {
			reached := reachedFrom(c.prog, rel)
			c.monotone[rel] = true
			for _, r := range c.prog.Rules {
				for _, l := range r.Body {
					if l.IsNeg() && reached[l.Atom.Pred] {
						c.monotone[rel] = false
					}
				}
			}
			for p := range reached {
				if bodyRead[p] {
					c.feeds = append(c.feeds, rel)
					break
				}
			}
		}
	})
}

// reachedFrom returns rel together with every predicate of prog that
// depends on it through any chain of rules, positive or negated.
func reachedFrom(prog *ast.Program, rel string) map[string]bool {
	reached := map[string]bool{rel: true}
	for grew := true; grew; {
		grew = false
		for _, r := range prog.Rules {
			if reached[r.Head.Pred] {
				continue
			}
			for _, l := range r.Body {
				if !l.IsComp() && reached[l.Atom.Pred] {
					reached[r.Head.Pred], grew = true, true
					break
				}
			}
		}
	}
	return reached
}

// compiledFor resolves the compiled evaluation for the call, through the
// options' plan cache when one is attached and by direct compilation
// otherwise.
func compiledFor(prog *ast.Program, db *store.Store, goal string, opts Options) (*compiled, error) {
	if opts.Cache != nil {
		return opts.Cache.compiledFor(prog, db, goal, opts)
	}
	return compile(prog, db, goal, opts)
}

// planKey identifies a compiled evaluation: the program content
// fingerprint, the goal adornment, the index mode, and the store shape
// (identity + schema version). The store's identity must participate —
// compiled plans bake in arity checks against one particular database,
// and schema counters of distinct stores advance independently, so
// (fp, goal, schema) alone could alias two stores.
type planKey struct {
	fp      uint64
	goal    string
	noIndex bool
	storeID uint64
	schema  uint64
}

const (
	// planCacheCap bounds the compiled-plan map; at the cap the map is
	// reset wholesale (same policy as core's decision cache — entries
	// are recomputable, so eviction precision is not worth the
	// bookkeeping).
	planCacheCap = 4096
	// planFPCap bounds the program-pointer → fingerprint memo.
	planFPCap = 4096
)

// PlanCache memoizes compiled evaluations across calls. It is safe for
// concurrent use; core.Checker attaches one to its evaluation options so
// every phase-4 global check and admission check reuses plans across the
// update stream. Structural store changes (relation creation, Replace,
// EnsureIndex) advance the store's schema version and thereby miss the
// cache naturally; constraint-set changes must call Invalidate.
type PlanCache struct {
	mu sync.Mutex
	// fps memoizes program fingerprints by pointer identity: constraint
	// programs are parsed once and reused across the update stream, so
	// the (allocating) content hash is computed once per program, not
	// once per call.
	fps     map[*ast.Program]uint64
	entries map[planKey]*compiled
	hits    atomic.Int64
	misses  atomic.Int64
}

// NewPlanCache creates an empty plan cache.
func NewPlanCache() *PlanCache {
	return &PlanCache{
		fps:     make(map[*ast.Program]uint64),
		entries: make(map[planKey]*compiled),
	}
}

// Stats returns the cumulative hit/miss counters and the current number
// of cached compiled evaluations.
func (pc *PlanCache) Stats() (hits, misses int64, entries int) {
	pc.mu.Lock()
	entries = len(pc.entries)
	pc.mu.Unlock()
	return pc.hits.Load(), pc.misses.Load(), entries
}

// ResetStats zeroes the hit/miss counters without dropping plans, so a
// warmed cache can report one run's rates in isolation (ccheck -repeat).
func (pc *PlanCache) ResetStats() {
	pc.hits.Store(0)
	pc.misses.Store(0)
}

// Invalidate drops every cached plan (the fingerprint memo survives: it
// keys on program identity, which outlives any store or constraint-set
// change). Call it when the constraint set changes.
func (pc *PlanCache) Invalidate() {
	pc.mu.Lock()
	pc.entries = make(map[planKey]*compiled)
	pc.mu.Unlock()
}

// fingerprintLocked returns the content fingerprint for prog, memoized
// by pointer. Caller holds pc.mu.
func (pc *PlanCache) fingerprintLocked(prog *ast.Program) uint64 {
	if fp, ok := pc.fps[prog]; ok {
		return fp
	}
	h := fnv.New64a()
	h.Write([]byte(prog.String()))
	fp := h.Sum64()
	if len(pc.fps) >= planFPCap {
		pc.fps = make(map[*ast.Program]uint64)
	}
	pc.fps[prog] = fp
	return fp
}

// compiledFor returns the cached compiled evaluation for the call,
// compiling and caching on miss. Compilation runs outside the lock —
// concurrent first calls may compile twice, but both results are
// identical and one simply wins the store.
func (pc *PlanCache) compiledFor(prog *ast.Program, db *store.Store, goal string, opts Options) (*compiled, error) {
	pc.mu.Lock()
	key := planKey{
		fp:      pc.fingerprintLocked(prog),
		goal:    goal,
		noIndex: opts.DisableIndexes,
		storeID: db.ID(),
		schema:  db.SchemaVersion(),
	}
	if e, ok := pc.entries[key]; ok {
		pc.mu.Unlock()
		pc.hits.Add(1)
		return e, nil
	}
	pc.mu.Unlock()
	e, err := compile(prog, db, goal, opts)
	if err != nil {
		return nil, err // compile errors are not cached
	}
	pc.misses.Add(1)
	pc.mu.Lock()
	if len(pc.entries) >= planCacheCap {
		pc.entries = make(map[planKey]*compiled)
	}
	pc.entries[key] = e
	pc.mu.Unlock()
	return e, nil
}
