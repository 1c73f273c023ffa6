package eval

import (
	"sync"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/store"
)

// Result holds the derived (IDB) relations of one evaluation.
type Result struct {
	idb map[string]*relation.Relation
}

// Relation returns the derived relation for pred (nil when the predicate
// derived nothing and is unknown).
func (r *Result) Relation(pred string) *relation.Relation { return r.idb[pred] }

// Tuples returns the derived tuples for pred.
func (r *Result) Tuples(pred string) []relation.Tuple {
	rel := r.idb[pred]
	if rel == nil {
		return nil
	}
	return rel.Tuples()
}

// Holds reports whether the 0-ary predicate pred was derived.
func (r *Result) Holds(pred string) bool {
	rel := r.idb[pred]
	return rel != nil && rel.Len() > 0
}

// Options tune the evaluation strategy. The zero value is the fast
// default: bound-first join planning, multi-column indexed probes and
// range steps over ordered indexes.
type Options struct {
	// DisableIndexes is the reference arm (ccheck -noindex): body atoms
	// are joined in textual order and every candidate is fetched by a scan
	// of the whole relation and filtered, with no index built or probed.
	DisableIndexes bool
	// Cache, when non-nil, memoizes compiled evaluations (pruning,
	// stratification, join plans, arity checks) across calls — see
	// PlanCache. Without a cache every call compiles afresh, which is
	// the -noplancache A/B arm.
	Cache *PlanCache
	// Probe, when non-nil, may intercept EDB reads (candidate fetches
	// and negated-subgoal membership probes) before they hit the store —
	// the shard-routing hook: a distributed coordinator serves probes on
	// hash-partitioned relations from the owning shard instead of a
	// local mirror. IDB reads are never routed.
	Probe ProbeRouter
}

// ProbeRouter intercepts EDB reads during evaluation. Implementations
// decide per relation whether to handle the read (handled=false falls
// through to the local store). A handled Probe must return exactly the
// tuples whose projection onto cols equals vals — the join loop trusts
// probe results to match every bound column and does not re-check them.
// cols may be empty, demanding the relation's full contents. Errors
// abort the evaluation and surface from EvalWith and GoalHoldsAfter.
type ProbeRouter interface {
	// Probe appends the matching tuples to dst and returns it.
	Probe(dst []relation.Tuple, rel string, cols []int, vals []ast.Value) ([]relation.Tuple, bool, error)
	// Contains reports membership of t in rel.
	Contains(rel string, t relation.Tuple) (bool, bool, error)
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
	c, err := compiledFor(prog, db, "", opts)
	if err != nil {
		return nil, err
	}
	ev, res := newEvaluator(c, db, opts)
	defer ev.release()
	for i := range c.strata {
		if err := ev.evalStratum(&c.strata[i]); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// newEvaluator allocates the result (empty IDB relations) for the
// compiled program and borrows a pooled evaluator to derive into it;
// callers must release() the evaluator when done.
func newEvaluator(c *compiled, db *store.Store, opts Options) (*evaluator, *Result) {
	res := &Result{idb: make(map[string]*relation.Relation, len(c.idbArity))}
	for pred, ar := range c.idbArity {
		res.idb[pred] = relation.New(pred, ar)
	}
	ev := getEvaluator()
	ev.comp, ev.db, ev.res, ev.opts = c, db, res, opts
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
// program, the store, the pending update, a kept fixpoint), what it
// derives into, and the engine's scratch — registers, the head buffer and
// one level per plan depth (vm.go). Evaluators are pooled, so the steady
// state of a decision stream allocates none of it; the compiled object
// they run is shared and read-only.
type evaluator struct {
	comp *compiled
	db   *store.Store
	res  *Result
	opts Options
	// stop, when set, aborts evaluation with errGoalDerived as soon as the
	// named predicate derives a tuple (GoalHoldsAfter).
	stop string
	// prior and then upd, where set, are pending: stored relations read as
	// they will once the updates are applied in that order. upd's tuple is
	// also the parameters of a residual plan.
	prior []store.Update
	upd   store.Update
	// fix, when set, makes this a delta-seeded run over a kept fixpoint
	// (fixpoint.go): derived predicates are read from and written to its
	// handle rows, rules run their delta-first plans, and the delta
	// literal ranges over rows [dlo, dhi) of its predicate — or, for the
	// inserted relation, over upd's tuple alone.
	fix      *Fixpoint
	dlo, dhi int
	// The rule run in progress: the body index of its delta literal (-1:
	// none), the previous round's delta relation that literal reads, and
	// the next round's its fresh head tuples go to.
	deltaPos int
	deltaRel *relation.Relation
	nextRel  *relation.Relation

	regs   []ast.Value
	head   []ast.Value
	levels []level
}

// evaluators holds evaluators with no run state (deltaPos -1, every
// reference nil) and warm scratch.
var evaluators = sync.Pool{New: func() any { return &evaluator{deltaPos: -1} }}

// getEvaluator borrows a pooled evaluator; callers set what they read and
// must release it.
func getEvaluator() *evaluator { return evaluators.Get().(*evaluator) }

// release drops the run's references and returns the evaluator (with its
// scratch) to the pool.
func (ev *evaluator) release() {
	*ev = evaluator{deltaPos: -1, regs: ev.regs, head: ev.head, levels: ev.levels}
	evaluators.Put(ev)
}

// evalStratum computes the fixpoint of the (possibly mutually recursive)
// predicates in the stratum. Lower strata are complete; negation may
// refer only to them or to EDB relations. Stratum membership, rule
// lists, and the recursive flag come precomputed from compile().
func (ev *evaluator) evalStratum(sp *stratumPlan) error {
	if !sp.recursive {
		for _, r := range sp.rules {
			if err := ev.applyRule(r, nil, -1, nil); err != nil {
				return err
			}
		}
		return nil
	}
	// Semi-naive iteration. delta holds the tuples new in the previous
	// round, per stratum predicate; the two delta generations ping-pong
	// via Reset instead of allocating fresh relations per round (Reset
	// keeps backing storage and built index signatures warm).
	delta := make(map[string]*relation.Relation, len(sp.preds))
	next := make(map[string]*relation.Relation, len(sp.preds))
	for _, p := range sp.preds {
		delta[p] = relation.New(p, ev.res.idb[p].Arity())
		next[p] = relation.New(p, ev.res.idb[p].Arity())
	}
	// Round 0: evaluate every rule with no delta restriction; everything
	// derived seeds the delta.
	for _, r := range sp.rules {
		if err := ev.applyRule(r, delta, -1, nil); err != nil {
			return err
		}
	}
	for {
		for _, p := range sp.preds {
			next[p].Reset()
		}
		any := false
		for _, r := range sp.rules {
			// One pass per occurrence of a stratum predicate: occurrence i
			// reads the previous delta, occurrences before i read the
			// full current relation, and so do occurrences after i (the
			// standard semi-naive rewriting over-approximates slightly
			// by using full relations on both sides; it remains correct
			// and terminates because results are deduplicated).
			for bi, l := range r.Body {
				if l.IsComp() || l.IsNeg() || !sp.inLayer[l.Atom.Pred] {
					continue
				}
				if err := ev.applyRule(r, next, bi, delta); err != nil {
					return err
				}
			}
		}
		for _, p := range sp.preds {
			if next[p].Len() > 0 {
				any = true
			}
		}
		if !any {
			return nil
		}
		delta, next = next, delta
	}
}

// applyRule evaluates rule r and inserts derived head tuples into the
// result. When deltaPos >= 0, the positive body literal at that index
// ranges over delta[pred] instead of the full relation (in a delta-seeded
// run, over the delta rows and with the plan that starts from it). Newly
// derived tuples (not already present) are also added to next when
// non-nil.
func (ev *evaluator) applyRule(r *ast.Rule, next map[string]*relation.Relation, deltaPos int, delta map[string]*relation.Relation) error {
	p := ev.comp.plans[r]
	if ev.fix != nil {
		p = ev.comp.deltaPlans[deltaKey{r, deltaPos}]
	}
	if p == nil {
		return nil // a stored relation of another arity: the body is underivable
	}
	ev.deltaPos, ev.deltaRel, ev.nextRel = deltaPos, nil, next[r.Head.Pred]
	if deltaPos >= 0 {
		ev.deltaRel = delta[r.Body[deltaPos].Atom.Pred]
	}
	return ev.runPlan(p)
}
