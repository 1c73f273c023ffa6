package eval

import (
	"sync"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/store"
)

// Result holds the derived (IDB) relations of one evaluation, as handle
// rows; tuples are materialized only when asked for.
type Result struct {
	slot map[string]int
	sets []*rowSet
}

// set returns the rows derived for pred, nil for a predicate the program
// does not derive.
func (r *Result) set(pred string) *rowSet {
	if i, ok := r.slot[pred]; ok {
		return r.sets[i]
	}
	return nil
}

// Relation materializes the derived relation for pred (nil when the
// predicate is not derived by the program).
func (r *Result) Relation(pred string) *relation.Relation {
	rs := r.set(pred)
	if rs == nil {
		return nil
	}
	rel := relation.New(pred, rs.arity)
	for _, t := range rs.tuples(rs.n) {
		rel.Insert(t)
	}
	return rel
}

// Tuples returns the derived tuples for pred.
func (r *Result) Tuples(pred string) []relation.Tuple {
	if rs := r.set(pred); rs != nil {
		return rs.tuples(rs.n)
	}
	return nil
}

// Holds reports whether the 0-ary predicate pred was derived.
func (r *Result) Holds(pred string) bool {
	rs := r.set(pred)
	return rs != nil && rs.n > 0
}

// Options tune the evaluation strategy. The zero value is the fast
// default: bound-first join planning, multi-column indexed probes and
// range steps over ordered indexes.
type Options struct {
	// DisableIndexes is the reference arm (ccheck -noindex): body atoms
	// are joined in textual order and every candidate is fetched by a scan
	// of the whole relation and filtered, with no index built or probed.
	DisableIndexes bool
	// Cache, when non-nil, memoizes what EvalWith, GoalHoldsWith and
	// GoalHoldsAfter compile (pruning, stratification, join plans) across
	// calls — see PlanCache. Without it every call compiles afresh; a
	// caller that keeps its programs keeps a Goal instead.
	Cache *PlanCache
}

// Eval computes the stratified fixpoint of prog over the extensional
// database db with default options. The store is read (charging its
// access counters) but never written. Rules must be safe and the program
// stratifiable.
func Eval(prog *ast.Program, db *store.Store) (*Result, error) {
	return EvalWith(prog, db, Options{})
}

// EvalWith is Eval with explicit evaluation options.
func EvalWith(prog *ast.Program, db *store.Store, opts Options) (*Result, error) {
	c, err := compiledFor(prog, "", opts)
	if err != nil {
		return nil, err
	}
	ev, res := newEvaluator(c, db)
	defer ev.release()
	for i := range c.strata {
		if err := ev.evalStratum(&c.strata[i]); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// newEvaluator allocates the result (empty derived relations) for the
// compiled program and borrows a pooled evaluator to derive into it;
// callers must release() the evaluator when done.
func newEvaluator(c *compiled, db *store.Store) (*evaluator, *Result) {
	res := &Result{slot: c.slot, sets: make([]*rowSet, len(c.arity))}
	for i := range res.sets {
		res.sets[i] = c.newSet(i)
	}
	ev := getEvaluator()
	ev.comp, ev.db, ev.sets = c, db, res.sets
	return ev, res
}

// PanicHolds evaluates the constraint program and reports whether panic
// is derived, i.e. whether the database VIOLATES the constraint.
func PanicHolds(prog *ast.Program, db *store.Store) (bool, error) {
	res, err := Eval(prog, db)
	if err != nil {
		return false, err
	}
	return res.Holds(ast.PanicPred), nil
}

// evaluator carries the state of one run: what it reads (the compiled
// program, the store, the pending updates), the derived relations it
// reads and derives into, and the engine's scratch — registers, the head
// buffer, the pending updates' handles and one level per plan depth
// (vm.go). Evaluators are pooled, so the steady state of a decision
// stream allocates none of it; the compiled object they run is shared and
// read-only.
type evaluator struct {
	comp *compiled
	db   *store.Store
	// sets are the derived relations by slot: a from-scratch result's, or
	// a kept fixpoint's rows.
	sets []*rowSet
	// stop, when >= 0, is the slot whose first derived row aborts the
	// evaluation with errGoalDerived (GoalHoldsAfter).
	stop int
	// prior and then upd, where set, are pending: stored relations read as
	// they will once the updates are applied in that order. upd's tuple is
	// also the parameters of a residual plan. params and priorRows are
	// their handles, interned on first use (pend, param, pendingRow).
	prior     []store.Update
	upd       store.Update
	params    []relation.Handle
	priorRows [][]relation.Handle
	priorBuf  []relation.Handle
	// The rule run in progress: the body index of its delta literal (-1:
	// none) and where that literal's rows come from. In a semi-naive
	// round of a from-scratch evaluation they are the previous round's
	// rows, delta, and the fresh rows also go to the next round's, next
	// (both by slot). In a delta-seeded run over a kept fixpoint
	// (fixpoint.go; delta nil) they are rows [dlo, dhi) of the predicate's
	// set — or, for the inserted relation, upd's tuple alone.
	deltaPos    int
	delta, next []*rowSet
	dlo, dhi    int

	regs   []relation.Handle
	head   []relation.Handle
	levels []level
}

// evaluators holds evaluators with no run state (deltaPos and stop -1,
// every reference nil) and warm scratch.
var evaluators = sync.Pool{New: func() any { return &evaluator{deltaPos: -1, stop: -1} }}

// getEvaluator borrows a pooled evaluator; callers set what they read and
// must release it.
func getEvaluator() *evaluator { return evaluators.Get().(*evaluator) }

// release drops the run's references and returns the evaluator (with its
// scratch) to the pool.
func (ev *evaluator) release() {
	*ev = evaluator{deltaPos: -1, stop: -1, regs: ev.regs, head: ev.head, levels: ev.levels,
		params: ev.params[:0], priorRows: ev.priorRows[:0], priorBuf: ev.priorBuf[:0]}
	evaluators.Put(ev)
}

// evalStratum computes the fixpoint of the (possibly mutually recursive)
// predicates in the stratum. Lower strata are complete; negation may
// refer only to them or to EDB relations.
func (ev *evaluator) evalStratum(sp *stratumPlan) error {
	if !sp.recursive {
		for i := range sp.rules {
			if err := ev.applyRule(sp.rules[i].plan, -1); err != nil {
				return err
			}
		}
		return nil
	}
	// Semi-naive iteration. delta holds the rows new in the previous
	// round, per stratum predicate; the two generations ping-pong,
	// truncated rather than reallocated, so their tables stay warm.
	delta := make([]*rowSet, len(ev.sets))
	next := make([]*rowSet, len(ev.sets))
	for _, s := range sp.slots {
		delta[s], next[s] = ev.comp.newSet(s), ev.comp.newSet(s)
	}
	defer func() { ev.delta, ev.next = nil, nil }()
	// Round 0: evaluate every rule with no delta restriction; everything
	// derived seeds the delta.
	ev.next = delta
	for i := range sp.rules {
		if err := ev.applyRule(sp.rules[i].plan, -1); err != nil {
			return err
		}
	}
	for {
		for _, s := range sp.slots {
			next[s].truncate(0)
		}
		ev.delta, ev.next = delta, next
		for i := range sp.rules {
			// One pass per occurrence of a stratum predicate: occurrence i
			// reads the previous delta, occurrences before i read the
			// full current relation, and so do occurrences after i (the
			// standard semi-naive rewriting over-approximates slightly
			// by using full relations on both sides; it remains correct
			// and terminates because results are deduplicated).
			for _, o := range sp.rules[i].occs {
				if o.inLayer {
					if err := ev.applyRule(sp.rules[i].plan, o.pos); err != nil {
						return err
					}
				}
			}
		}
		grew := false
		for _, s := range sp.slots {
			grew = grew || next[s].n > 0
		}
		if !grew {
			return nil
		}
		delta, next = next, delta
	}
}

// applyRule runs the rule plan p, deriving into the run's sets. When
// deltaPos >= 0, the positive body literal at that index ranges over the
// delta instead of the full relation. A nil plan is a body a stored
// relation of another arity makes underivable.
func (ev *evaluator) applyRule(p *Plan, deltaPos int) error {
	if p == nil {
		return nil
	}
	ev.deltaPos = deltaPos
	return ev.runPlan(p)
}
