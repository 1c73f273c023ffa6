package eval

import (
	"errors"

	"repro/internal/ast"
	"repro/internal/store"
)

// errGoalDerived unwinds the evaluation as soon as the goal is derived,
// and a residual plan at its first derivation.
var errGoalDerived = errors.New("eval: goal derived")

// GoalHoldsWith reports whether the goal predicate derives at least one
// tuple, evaluating only the predicates the goal transitively depends on
// and stopping at the first derivation. For constraint checking this is
// the global phase's question — "is panic derivable?" — and both
// optimizations are sound: unreachable predicates cannot contribute, and
// within the goal's stratum derivations only grow (negation refers to
// completed lower strata). The pruning, validation, stratification and
// join planning all live in the compiled object, cached across calls when
// opts.Cache is set.
func GoalHoldsWith(prog *ast.Program, db *store.Store, goal string, opts Options) (bool, error) {
	return GoalHoldsAfter(prog, db, goal, nil, store.Update{}, opts)
}

// GoalHoldsAfter is GoalHoldsWith for the database db will be once the
// updates prior and then u are applied, answered while reading db as it
// stands: db is not written, and a probe router serves the state before
// them. No prior and the zero Update ask of db.
func GoalHoldsAfter(prog *ast.Program, db *store.Store, goal string, prior []store.Update, u store.Update, opts Options) (bool, error) {
	c, err := compiledFor(prog, db, goal, opts)
	if err != nil {
		return false, err
	}
	if c.noRules {
		return false, nil // goal underivable: no rules at all
	}
	ev, result := newEvaluator(c, db, opts)
	defer ev.release()
	ev.pend(prior, u)
	for i := range c.strata {
		if i != c.goalLevel {
			if err := ev.evalStratum(&c.strata[i]); err != nil {
				return false, err
			}
			continue
		}
		ev.stop = c.goalSlot
		err := ev.evalStratum(&c.strata[i])
		ev.stop = -1
		if errors.Is(err, errGoalDerived) {
			return true, nil
		}
		if err != nil {
			return false, err
		}
		return result.Holds(goal), nil
	}
	return result.Holds(goal), nil
}

// pruneToGoal returns the subprogram of rules for predicates the goal
// transitively depends on.
func pruneToGoal(prog *ast.Program, goal string) *ast.Program {
	idb := prog.IDBPreds()
	keep := map[string]bool{}
	var visit func(p string)
	visit = func(p string) {
		if keep[p] {
			return
		}
		keep[p] = true
		for _, r := range prog.RulesFor(p) {
			for _, l := range r.Body {
				if !l.IsComp() && idb[l.Atom.Pred] {
					visit(l.Atom.Pred)
				}
			}
		}
	}
	visit(goal)
	out := &ast.Program{}
	for _, r := range prog.Rules {
		if keep[r.Head.Pred] {
			out.Rules = append(out.Rules, r)
		}
	}
	return out
}
