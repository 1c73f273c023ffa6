package eval

import (
	"errors"

	"repro/internal/ast"
	"repro/internal/store"
)

// errGoalDerived unwinds the evaluation as soon as the goal is derived,
// and a residual plan at its first derivation. It is the only way a run
// ends early: every read is of the store or of derived rows, and none
// can fail.
var errGoalDerived = errors.New("eval: goal derived")

// Goal is a program compiled for one goal predicate under fixed options:
// the question "is the goal derivable?" with its pruning, validation,
// stratification and join plans made once. It holds no store state, so
// one Goal answers for every state of every store. Immutable and safe for
// concurrent use.
type Goal struct {
	c    *compiled
	name string
	opts Options
}

// CompileGoal compiles prog for the goal predicate goal under opts.
func CompileGoal(prog *ast.Program, goal string, opts Options) (*Goal, error) {
	c, err := compile(prog, goal, opts)
	if err != nil {
		return nil, err
	}
	return &Goal{c: c, name: goal, opts: opts}, nil
}

// HoldsAfter is GoalHoldsAfter for the compiled goal.
func (g *Goal) HoldsAfter(db *store.Store, prior []store.Update, u store.Update) bool {
	return holdsAfter(g.c, db, g.name, prior, u)
}

// Fixpoint evaluates the compiled goal over db to its fixpoint and keeps
// it, to decide inserts into rel (see Fixpoint). It returns nil, before
// evaluating anything, when an insert into rel could not be decided by
// Fixpoint.Insert on the result (Seedable), and on the scan arm, which
// stays a reference that shares no shortcut with what it checks — no
// index, no kept rows. The store is read, never written.
func (g *Goal) Fixpoint(db *store.Store, rel string) *Fixpoint {
	if g.opts.DisableIndexes {
		return nil
	}
	return buildFixpoint(g.c, db, rel)
}

// GoalHoldsWith reports whether the goal predicate derives at least one
// tuple, evaluating only the predicates the goal transitively depends on
// and stopping at the first derivation. For constraint checking this is
// the global phase's question — "is panic derivable?" — and both
// optimizations are sound: unreachable predicates cannot contribute, and
// within the goal's stratum derivations only grow (negation refers to
// completed lower strata). It compiles prog for the call, or takes the
// compilation from opts.Cache; a caller that asks again keeps a Goal.
func GoalHoldsWith(prog *ast.Program, db *store.Store, goal string, opts Options) (bool, error) {
	return GoalHoldsAfter(prog, db, goal, nil, store.Update{}, opts)
}

// GoalHoldsAfter is GoalHoldsWith for the database db will be once the
// updates prior and then u are applied, answered while reading db as it
// stands: db is not written. No prior and the zero Update ask of db.
func GoalHoldsAfter(prog *ast.Program, db *store.Store, goal string, prior []store.Update, u store.Update, opts Options) (bool, error) {
	c, err := compiledFor(prog, goal, opts)
	if err != nil {
		return false, err
	}
	return holdsAfter(c, db, goal, prior, u), nil
}

// holdsAfter runs the compiled goal evaluation c over db with prior and u
// pending, up to the first derivation of the goal.
func holdsAfter(c *compiled, db *store.Store, goal string, prior []store.Update, u store.Update) bool {
	if c.noRules {
		return false // goal underivable: no rules at all
	}
	ev, result := newEvaluator(c, db)
	defer ev.release()
	ev.pend(prior, u)
	for i := range c.strata {
		if i != c.goalLevel {
			_ = ev.evalStratum(&c.strata[i]) // stop unset: no derivation ends it early
			continue
		}
		ev.stop = c.goalSlot
		derived := ev.evalStratum(&c.strata[i]) != nil // errGoalDerived
		ev.stop = -1
		return derived || result.Holds(goal)
	}
	return result.Holds(goal)
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
