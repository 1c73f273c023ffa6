package eval

import (
	"fmt"
	"slices"
	"sort"
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
// default: bound-first join planning and multi-column indexed probes.
type Options struct {
	// DisableIndexes restores the pre-index evaluator for A/B comparison
	// (ccheck -noindex): body atoms are joined in textual order and
	// candidate tuples are fetched by scan-plus-filter (at best a
	// single-column lookup on the first constant argument) instead of a
	// hash probe on the full bound-column signature.
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
// abort the evaluation and surface from Eval/GoalHolds.
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

// newEvaluator allocates evaluation state (empty IDB relations) for the
// compiled program and borrows pooled scratch buffers; callers must
// release() the evaluator when done.
func newEvaluator(c *compiled, db *store.Store, opts Options) (*evaluator, *Result) {
	res := &Result{idb: make(map[string]*relation.Relation, len(c.idbArity))}
	for pred, ar := range c.idbArity {
		res.idb[pred] = relation.New(pred, ar)
	}
	return &evaluator{comp: c, db: db, res: res, opts: opts, scr: scratchPool.Get().(*scratch)}, res
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

// evaluator carries evaluation state for one Eval call. The compiled
// object it runs is shared and read-only; all mutable state (result
// relations, scratch buffers) is per-evaluator.
type evaluator struct {
	comp *compiled
	db   *store.Store
	res  *Result
	opts Options
	scr  *scratch
	// stopWhenNonEmpty, when set, aborts evaluation with errGoalDerived
	// as soon as the named predicate derives a tuple (GoalHolds).
	stopWhenNonEmpty string
	// upd, if set, is pending: stored relations read as they will once it is applied.
	upd store.Update
	// fix, when set, makes this a delta-seeded run over a kept fixpoint
	// (fixpoint.go): derived predicates are read from and written to its
	// handle rows, rules run their delta-first plans, and the delta
	// literal ranges over rows [dlo, dhi) of its predicate — or, for the
	// inserted relation, over upd's tuple alone.
	fix      *Fixpoint
	dlo, dhi int
}

// pending adjusts what the store or the router answered to a positive
// read of the stored relation pred — the tuples, of an arity-ar atom,
// whose projection onto cols equals vals — to what it will hold once
// ev.upd is applied (an inserted tuple in, a deleted one out), in place.
func (ev *evaluator) pending(ts []relation.Tuple, pred string, ar int, cols []int, vals []ast.Value) []relation.Tuple {
	u := &ev.upd
	if pred != u.Relation {
		return ts
	}
	if !u.Insert {
		return slices.DeleteFunc(ts, u.Tuple.Equal)
	}
	if len(u.Tuple) != ar {
		return ts
	}
	for i, c := range cols {
		if !u.Tuple[c].Equal(vals[i]) {
			return ts
		}
	}
	return append(ts, u.Tuple)
}

// release returns the evaluator's scratch to the pool. The substitution
// may hold bindings when evaluation unwound through errGoalDerived, so
// it is cleared here rather than trusting the backtracking trail.
func (ev *evaluator) release() {
	if ev.scr != nil {
		clear(ev.scr.subst)
		scratchPool.Put(ev.scr)
		ev.scr = nil
	}
}

func (ev *evaluator) planFor(r *ast.Rule, deltaPos int) (*rulePlan, error) {
	if ev.fix != nil {
		return ev.comp.deltaPlans[deltaKey{r, deltaPos}], nil
	}
	if p, ok := ev.comp.plans[r]; ok {
		return p, nil
	}
	// Unreachable in practice — compile() plans every rule of every
	// stratum — but fall back to a throwaway plan rather than panic.
	return planRule(r, !ev.opts.DisableIndexes, -1)
}

// scratch holds the per-evaluation reusable buffers: one levelScratch
// per join depth plus the head-tuple buffer and the binding map. Pooled
// so the steady-state apply stream re-allocates none of it.
type scratch struct {
	subst  ast.Subst
	head   []ast.Value
	levels []levelScratch
}

// levelScratch is the per-join-depth scratch: resolved atom arguments,
// probe values (or the ground tuple of a negated subgoal), fetched
// candidate tuples, and the backtracking trail. Levels never alias —
// joinLoop recursion strictly increases the depth.
type levelScratch struct {
	args  []ast.Term
	vals  []ast.Value
	tups  []relation.Tuple
	trail []string
	// vbuf backs the tuples a kept fixpoint's rows materialize into.
	vbuf []ast.Value
}

var scratchPool = sync.Pool{New: func() any { return &scratch{subst: ast.Subst{}} }}

// level returns the scratch for join depth i, growing the ladder on
// first use.
func (sc *scratch) level(i int) *levelScratch {
	for len(sc.levels) <= i {
		sc.levels = append(sc.levels, levelScratch{})
	}
	return &sc.levels[i]
}

// evalStratum computes the fixpoint of the (possibly mutually recursive)
// predicates in the stratum. Lower strata are complete; negation may
// refer only to them or to EDB relations. Stratum membership, rule
// lists, and the recursive flag come precomputed from compile().
func (ev *evaluator) evalStratum(sp *stratumPlan) error {
	if !sp.recursive {
		for _, r := range sp.rules {
			if err := ev.applyRule(r, nil, -1, nil, sp); err != nil {
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
		if err := ev.applyRule(r, delta, -1, nil, sp); err != nil {
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
				if err := ev.applyRule(r, next, bi, delta, sp); err != nil {
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
// ranges over delta[pred] instead of the full relation. Newly derived
// tuples (not already present) are also added to newOut when non-nil.
func (ev *evaluator) applyRule(r *ast.Rule, newOut map[string]*relation.Relation, deltaPos int, delta map[string]*relation.Relation, sp *stratumPlan) error {
	plan, err := ev.planFor(r, deltaPos)
	if err != nil {
		return err
	}
	scr := ev.scr
	clear(scr.subst)
	emit := func(s ast.Subst) error {
		// Build the head tuple into the pooled buffer; Insert dedups
		// before cloning, so the buffer may be reused immediately.
		ht := scr.head[:0]
		for _, a := range r.Head.Args {
			if a.IsVar() {
				b, ok := s[a.Var]
				if !ok || !b.IsConst() {
					return fmt.Errorf("eval: derived non-ground head %s (unsafe rule?)", r.Head)
				}
				a = b
			}
			ht = append(ht, a.Const)
		}
		scr.head = ht
		var fresh bool
		if kept := ev.fix.kept(r.Head.Pred); kept != nil {
			fresh = kept.insert(relation.Tuple(ht))
		} else if fresh = ev.res.idb[r.Head.Pred].Insert(relation.Tuple(ht)); fresh && newOut != nil {
			if d, ok := newOut[r.Head.Pred]; ok {
				d.Insert(relation.Tuple(ht))
			}
		}
		if fresh && r.Head.Pred == ev.stopWhenNonEmpty {
			return errGoalDerived
		}
		return nil
	}
	return ev.joinLoop(plan, 0, scr.subst, deltaPos, delta, emit)
}

// rulePlan is an evaluation order for the body: positive atoms
// most-bound-first (or in original order under DisableIndexes), with
// each comparison and negated atom scheduled at the earliest point where
// its variables are bound. steps[i].bodyIndex remembers the literal's
// original position for delta bookkeeping.
type rulePlan struct {
	steps []planStep
}

type planStep struct {
	lit       ast.Literal
	bodyIndex int
	// probeCols are the argument positions of a positive atom that are
	// ground when the step runs (textual constants plus variables bound
	// by earlier steps) — the bound-column signature of the indexed
	// probe. Computed at plan time: the bound-variable set evolves
	// deterministically along the plan order.
	probeCols []int
	// empty marks a positive atom over a stored relation whose arity
	// disagrees with the atom: it can never match, so the step yields
	// nothing (set by planFor, which can see the database).
	empty bool
}

// boundScore counts the atom's argument positions ground under the given
// bound-variable set — the number of columns an indexed probe can pin.
func boundScore(a ast.Atom, bound map[string]bool) int {
	n := 0
	for _, t := range a.Args {
		if t.IsConst() || (t.IsVar() && bound[t.Var]) {
			n++
		}
	}
	return n
}

// probeColsFor lists the atom's positions ground under bound, skipping
// repeated occurrences of a variable first bound within this same atom
// (those are checked tuple-by-tuple, not probed).
func probeColsFor(a ast.Atom, bound map[string]bool) []int {
	var cols []int
	for i, t := range a.Args {
		if t.IsConst() || (t.IsVar() && bound[t.Var]) {
			cols = append(cols, i)
		}
	}
	return cols
}

// planRule orders the body for the nested-loop join. With reorder set
// (the indexed evaluator), positive atoms are scheduled greedily
// most-bound-first: at every point the atom with the most ground
// argument positions runs next, ties broken by textual order, so each
// probe pins as many columns as possible. Without reorder (the -noindex
// escape hatch) positive atoms keep their textual order — the seed
// behavior. Comparisons and negated atoms are interleaved at the
// earliest point where their variables are bound in both modes.
//
// first, when >= 0, is the body index of a positive atom that must run
// first whatever its score: a delta-seeded run starts every rule from
// its delta literal, the one subgoal known to range over a few tuples.
func planRule(r *ast.Rule, reorder bool, first int) (*rulePlan, error) {
	bound := map[string]bool{}
	var steps []planStep
	pending := make([]int, 0, len(r.Body))
	var posLeft []int
	for i, l := range r.Body {
		if l.IsPos() {
			posLeft = append(posLeft, i)
		} else {
			pending = append(pending, i)
		}
	}
	ready := func() []int {
		var out []int
		rest := pending[:0]
		for _, i := range pending {
			ok := true
			for _, v := range r.Body[i].Vars(nil) {
				if !bound[v] {
					ok = false
					break
				}
			}
			if ok {
				out = append(out, i)
			} else {
				rest = append(rest, i)
			}
		}
		pending = rest
		return out
	}
	for len(posLeft) > 0 {
		pick := 0
		if first >= 0 && len(steps) == 0 {
			for idx, bi := range posLeft {
				if bi == first {
					pick = idx
				}
			}
		} else if reorder {
			best := -1
			for idx, bi := range posLeft {
				if score := boundScore(r.Body[bi].Atom, bound); score > best {
					best, pick = score, idx
				}
			}
		}
		bi := posLeft[pick]
		posLeft = append(posLeft[:pick], posLeft[pick+1:]...)
		steps = append(steps, planStep{
			lit:       r.Body[bi],
			bodyIndex: bi,
			probeCols: probeColsFor(r.Body[bi].Atom, bound),
		})
		for _, v := range r.Body[bi].Vars(nil) {
			bound[v] = true
		}
		for _, j := range ready() {
			steps = append(steps, planStep{lit: r.Body[j], bodyIndex: j})
		}
	}
	// Ground comparisons/negations (no variables) schedule up front.
	if len(pending) > 0 {
		for _, j := range pending {
			for _, v := range r.Body[j].Vars(nil) {
				if !bound[v] {
					return nil, fmt.Errorf("eval: unsafe rule %s: variable %s never bound", r, v)
				}
			}
			steps = append(steps, planStep{lit: r.Body[j], bodyIndex: j})
		}
	}
	return &rulePlan{steps: steps}, nil
}

// joinLoop performs the nested-loop join over the plan. Variable
// bindings are written into s in place and undone on backtracking (the
// tuple side is always ground bottom-up, so bindings are constants and
// no chains arise).
func (ev *evaluator) joinLoop(plan *rulePlan, si int, s ast.Subst, deltaPos int, delta map[string]*relation.Relation, emit func(ast.Subst) error) error {
	if si == len(plan.steps) {
		return emit(s)
	}
	step := &plan.steps[si]
	switch {
	case step.lit.IsComp():
		c := step.lit.Comp
		l, r := s.Resolve(c.Left), s.Resolve(c.Right)
		if !l.IsConst() || !r.IsConst() {
			return fmt.Errorf("eval: comparison %s not ground at evaluation time", c)
		}
		if !c.Op.Eval(l.Const, r.Const) {
			return nil
		}
		return ev.joinLoop(plan, si+1, s, deltaPos, delta, emit)
	case step.lit.IsNeg():
		lv := ev.scr.level(si)
		vals := lv.vals[:0]
		for _, a := range step.lit.Atom.Args {
			a = s.Resolve(a)
			if !a.IsConst() {
				return fmt.Errorf("eval: negated subgoal %s not ground at evaluation time", step.lit.Atom)
			}
			vals = append(vals, a.Const)
		}
		lv.vals = vals
		has, err := ev.contains(step.lit.Atom.Pred, relation.Tuple(vals))
		if err != nil {
			return err
		}
		if has {
			return nil
		}
		return ev.joinLoop(plan, si+1, s, deltaPos, delta, emit)
	default:
		if step.empty {
			return nil // stored arity disagrees with the atom: no match possible
		}
		// Resolve the atom's arguments against the bindings made by
		// earlier steps, once, into this level's scratch. Candidates
		// arrive pre-matched on every ground position (indexed probe or
		// constant filter), so the loop below only binds the free
		// variables and checks variables repeated within this atom.
		lv := ev.scr.level(si)
		args := lv.args[:0]
		for _, a := range step.lit.Atom.Args {
			args = append(args, s.Resolve(a))
		}
		lv.args = args
		trail := lv.trail[:0]
		cand, err := ev.fetch(lv, step, step.bodyIndex == deltaPos, delta)
		if err != nil {
			return err
		}
		for _, t := range cand {
			ok := true
			n0 := len(trail)
			for i, arg := range args {
				if arg.IsConst() {
					continue // guaranteed equal by the probe / constant filter
				}
				// A repeated variable within this atom may have been
				// bound by an earlier column of the same tuple.
				if b, bound := s[arg.Var]; bound {
					if !b.Const.Equal(t[i]) {
						ok = false
						break
					}
					continue
				}
				s[arg.Var] = ast.C(t[i])
				trail = append(trail, arg.Var)
			}
			if ok {
				if err := ev.joinLoop(plan, si+1, s, deltaPos, delta, emit); err != nil {
					lv.trail = trail
					return err
				}
			}
			for len(trail) > n0 {
				delete(s, trail[len(trail)-1])
				trail = trail[:len(trail)-1]
			}
		}
		lv.trail = trail
		return nil
	}
}

// fetch returns the candidate tuples for one positive step: an indexed
// probe on the step's full bound-column signature by default, or the
// seed scan-and-filter under DisableIndexes. useDelta restricts an IDB
// predicate of the current stratum to the previous round's delta (delta
// relations carry their own indexes: Reset clears the buckets but keeps
// the signatures, and Insert maintains them incrementally). The indexed
// paths append into the level's reusable buffers, so the steady state
// fetches without allocating.
func (ev *evaluator) fetch(lv *levelScratch, step *planStep, useDelta bool, delta map[string]*relation.Relation) ([]relation.Tuple, error) {
	pred := step.lit.Atom.Pred
	if ev.opts.DisableIndexes {
		return ev.scan(ast.Atom{Pred: pred, Args: lv.args}, useDelta, delta)
	}
	cols := step.probeCols
	vals := lv.vals[:0]
	for _, c := range cols {
		vals = append(vals, lv.args[c].Const)
	}
	lv.vals = vals
	dst := lv.tups[:0]
	kept := ev.fix.kept(pred)
	switch {
	case kept != nil && useDelta:
		dst = kept.scan(dst, &lv.vbuf, ev.dlo, ev.dhi, cols, vals)
	case kept != nil:
		dst = kept.lookup(dst, &lv.vbuf, cols, vals)
	case ev.fix != nil && useDelta:
		// The inserted relation's delta is the inserted tuple, if it agrees
		// with the literal's arity and constants.
		dst = ev.pending(dst, pred, len(lv.args), cols, vals)
	case useDelta && delta[pred] != nil:
		d := delta[pred]
		if len(cols) == 0 {
			dst = d.TuplesAppend(dst)
		} else {
			dst = d.LookupColsAppend(dst, cols, vals)
		}
	default:
		if rel, ok := ev.res.idb[pred]; ok {
			// IDB relations are not charged: they are derived scratch space.
			if len(cols) == 0 {
				dst = rel.TuplesAppend(dst)
			} else {
				dst = rel.LookupColsAppend(dst, cols, vals)
			}
		} else {
			if ev.opts.Probe != nil {
				out, handled, err := ev.opts.Probe.Probe(dst, pred, cols, vals)
				if err != nil {
					return nil, err
				}
				if handled {
					lv.tups = ev.pending(out, pred, len(lv.args), cols, vals)
					return lv.tups, nil
				}
			}
			if len(cols) == 0 {
				dst = ev.db.TuplesAppend(dst, pred)
			} else {
				dst = ev.db.LookupColsAppend(dst, pred, cols, vals)
			}
			dst = ev.pending(dst, pred, len(lv.args), cols, vals)
		}
	}
	lv.tups = dst
	return dst, nil
}

// contains checks membership in an IDB result or the EDB store; EDB
// probes are charged to the store's counters (or routed, when a
// ProbeRouter claims the relation).
func (ev *evaluator) contains(pred string, t relation.Tuple) (bool, error) {
	if kept := ev.fix.kept(pred); kept != nil {
		return kept.contains(t), nil
	}
	if rel, ok := ev.res.idb[pred]; ok {
		return rel.Contains(t), nil
	}
	if pred == ev.upd.Relation && t.Equal(ev.upd.Tuple) {
		return ev.upd.Insert, nil // the pending update decides its own tuple
	}
	if ev.opts.Probe != nil {
		has, handled, err := ev.opts.Probe.Contains(pred, t)
		if err != nil {
			return false, err
		}
		if handled {
			return has, nil
		}
	}
	return ev.db.Probe(pred, t), nil
}

// scan returns candidate tuples for atom, preferring an indexed lookup on
// the first constant argument. useDelta restricts an IDB predicate of the
// current stratum to the previous round's delta.
func (ev *evaluator) scan(atom ast.Atom, useDelta bool, delta map[string]*relation.Relation) ([]relation.Tuple, error) {
	if useDelta {
		if d, ok := delta[atom.Pred]; ok {
			return filterByConstants(d.Tuples(), atom), nil
		}
	}
	if rel, ok := ev.res.idb[atom.Pred]; ok {
		// IDB relations are not charged: they are derived scratch space.
		for i, a := range atom.Args {
			if a.IsConst() {
				return filterByConstants(rel.Lookup(i, a.Const), atom), nil
			}
		}
		return filterByConstants(rel.Tuples(), atom), nil
	}
	// A stored relation: the pending update applies ahead of the filter.
	stored := func(ts []relation.Tuple) ([]relation.Tuple, error) {
		return filterByConstants(ev.pending(ts, atom.Pred, len(atom.Args), nil, nil), atom), nil
	}
	if ev.opts.Probe != nil {
		// The unindexed path routes as a whole-relation read and filters
		// locally — the -noindex arm measures probe strategy, not routing.
		ts, handled, err := ev.opts.Probe.Probe(nil, atom.Pred, nil, nil)
		if err != nil {
			return nil, err
		}
		if handled {
			return stored(ts)
		}
	}
	for i, a := range atom.Args {
		if a.IsConst() {
			return stored(ev.db.Lookup(atom.Pred, i, a.Const))
		}
	}
	return stored(ev.db.Tuples(atom.Pred))
}

// filterByConstants drops tuples that disagree with the atom's constant
// arguments (the unifier would reject them anyway; filtering early keeps
// the join loop tighter).
func filterByConstants(ts []relation.Tuple, atom ast.Atom) []relation.Tuple {
	hasConst := false
	for _, a := range atom.Args {
		if a.IsConst() {
			hasConst = true
			break
		}
	}
	if !hasConst {
		return ts
	}
	keep := func(t relation.Tuple) bool {
		// Tuple length always matches: planFor validated the relation's
		// arity against the atom once, at plan time.
		for i, a := range atom.Args {
			if a.IsConst() && !a.Const.Equal(t[i]) {
				return false
			}
		}
		return true
	}
	// Copy only from the first mismatch on: the common case where every
	// candidate survives returns the input slice unchanged.
	for j, t := range ts {
		if keep(t) {
			continue
		}
		out := append(ts[:0:0], ts[:j]...)
		for _, t := range ts[j+1:] {
			if keep(t) {
				out = append(out, t)
			}
		}
		return out
	}
	return ts
}

// Violations evaluates several constraint programs and returns the names
// (indexes) of those whose panic predicate is derived.
func Violations(constraints []*ast.Program, db *store.Store) ([]int, error) {
	var out []int
	for i, c := range constraints {
		bad, err := PanicHolds(c, db)
		if err != nil {
			return nil, fmt.Errorf("constraint %d: %w", i, err)
		}
		if bad {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out, nil
}
