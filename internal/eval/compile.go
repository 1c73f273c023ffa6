package eval

import (
	"sync"

	"repro/internal/ast"
)

// Compile-once evaluation. Every piece of per-call preparation the
// evaluator used to redo on each Eval/GoalHoldsAfter — goal pruning,
// validation, stratification, bound-first join planning — is hoisted into
// a compiled object that depends only on (program, goal, index mode): a
// plan names each stored relation with the arity of its atom, and a read
// of a relation stored with another arity finds nothing (store.
// TuplesAppend and friends), so no compiled object depends on the store.
// A Goal hands one to a caller that keeps it — core.Checker compiles each
// constraint once, when it is added — so the steady state of a decision
// runs ready-made plans: the per-update cost is the join itself.

// stratumPlan is one stratum with its evaluation bookkeeping
// precomputed: the slots of its predicates, its rules with their plans
// and positive body literals, and whether it is recursive (needs
// semi-naive iteration).
type stratumPlan struct {
	slots     []int
	rules     []rulePlan
	recursive bool
}

// rulePlan is one rule of a stratum: the rule, its from-scratch plan and
// the positive body literals a semi-naive round may take as its delta.
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
// strata, and one join plan per rule. A compiled object is immutable after
// construction and safe to share across concurrent evaluations.
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

// compile builds the ready-to-run evaluation for prog, pruned to goal
// when goal is non-empty.
func compile(prog *ast.Program, goal string, opts Options) (*compiled, error) {
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
				rp := rulePlan{rule: r, plan: compileRule(r, c.slot, opts.DisableIndexes, -1)}
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
func (c *compiled) prepareDelta() {
	c.deltaOnce.Do(func() {
		idb := c.prog.IDBPreds()
		c.deltaPlans = make([]*Plan, c.occs)
		c.monotone = make(map[string]bool)
		for _, sp := range c.strata {
			for _, rp := range sp.rules {
				for _, o := range rp.occs {
					c.deltaPlans[o.id] = compileRule(rp.rule, c.slot, false, o.pos)
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
// options' plan memo when one is attached and by direct compilation
// otherwise.
func compiledFor(prog *ast.Program, goal string, opts Options) (*compiled, error) {
	if opts.Cache != nil {
		return opts.Cache.compiledFor(prog, goal, opts)
	}
	return compile(prog, goal, opts)
}

// planKey identifies a compiled evaluation: the program, by identity — the
// memo's key keeps it alive, so its address is never another program's —
// the goal and the index mode.
type planKey struct {
	prog    *ast.Program
	goal    string
	noIndex bool
}

// PlanCache memoizes compiled evaluations per (program, goal, index mode)
// for callers that evaluate programs they do not keep compiled: what
// GoalHoldsWith and friends compile under Options.Cache. It holds every
// program it is asked about, so it suits a fixed set of programs. Safe
// for concurrent use.
type PlanCache struct {
	mu      sync.Mutex
	entries map[planKey]*compiled
}

// NewPlanCache creates an empty plan memo.
func NewPlanCache() *PlanCache { return &PlanCache{entries: map[planKey]*compiled{}} }

// compiledFor returns the memoized compiled evaluation for the call,
// compiling it on first sight. Compilation runs under the lock.
func (pc *PlanCache) compiledFor(prog *ast.Program, goal string, opts Options) (*compiled, error) {
	key := planKey{prog, goal, opts.DisableIndexes}
	pc.mu.Lock()
	defer pc.mu.Unlock()
	if e, ok := pc.entries[key]; ok {
		return e, nil
	}
	e, err := compile(prog, goal, opts)
	if err != nil {
		return nil, err // compile errors are not memoized
	}
	pc.entries[key] = e
	return e, nil
}
