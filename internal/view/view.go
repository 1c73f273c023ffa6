// Package view implements the paper's third application (Section 2,
// "Applications"): view maintenance. A view is a datalog program
// defining a goal predicate; given an update, the central question —
// studied by Tompa and Blakeley [1988] and Blakeley, Coburn and Larson
// [1989] — is whether the update is *irrelevant*: provably unable to
// change the view's contents on any database.
//
// The machinery is exactly the paper's: rewrite the view for the update
// (Section 4) and decide equivalence of the rewritten and original view
// queries by mutual containment, dispatched to the same procedures used
// for constraint subsumption (Theorem 3.1/3.2 territory — for views the
// heads are nontrivial, which the containment tests support).
package view

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/containment"
	"repro/internal/eval"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/store"
	"repro/internal/subsume"
)

// View is a named query: a datalog program with a distinguished goal
// predicate.
type View struct {
	Goal string
	Prog *ast.Program
}

// New builds a view after validating the program and the goal.
func New(goal string, prog *ast.Program) (*View, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if len(prog.RulesFor(goal)) == 0 {
		return nil, fmt.Errorf("view: no rules for goal predicate %s", goal)
	}
	return &View{Goal: goal, Prog: prog}, nil
}

// Materialize evaluates the view over the database.
func (v *View) Materialize(db *store.Store) ([]relation.Tuple, error) {
	res, err := eval.Eval(v.Prog, db)
	if err != nil {
		return nil, err
	}
	return res.Tuples(v.Goal), nil
}

// Irrelevant reports whether the update provably cannot change the
// view's contents on any database (given nothing about the current
// state): the rewritten view V' (the view after the update, expressed
// over the pre-update database) must be equivalent to V. The result is
// conservative for language fragments without a complete containment
// procedure: false then means "possibly relevant".
func Irrelevant(v *View, u store.Update) (bool, error) {
	if !v.Prog.Mentions(u.Relation) {
		return true, nil
	}
	vPrime, err := rewrite.Rewrite(v.Prog, u)
	if err != nil {
		return false, err
	}
	fwd, err := containedIn(vPrime, v.Prog, v.Goal)
	if err != nil || !fwd {
		return false, err
	}
	return containedIn(v.Prog, vPrime, v.Goal)
}

// containedIn decides program containment for the goal predicate by
// expanding both programs into unions of single rules and dispatching
// each disjunct (conservatively false when expansion is impossible,
// e.g. recursion).
func containedIn(p, q *ast.Program, goal string) (bool, error) {
	left, err := containment.Expand(p, goal)
	if err != nil {
		return false, nil // recursion or inexpressible negation: conservative
	}
	right, err := containment.Expand(q, goal)
	if err != nil {
		return false, nil
	}
	for _, d := range left {
		r, err := subsume.ContainsRuleInUnion(d, right)
		if err != nil {
			return false, err
		}
		if r.Verdict != subsume.Yes {
			return false, nil
		}
	}
	return true, nil
}

// Delta computes the exact change of the view caused by applying the
// update to db: the added and removed view tuples. It is the ground
// truth used to validate Irrelevant, and a useful primitive in its own
// right (differential view maintenance by recomputation).
func Delta(v *View, db *store.Store, u store.Update) (added, removed []relation.Tuple, err error) {
	before, err := v.Materialize(db)
	if err != nil {
		return nil, nil, err
	}
	after := db.Clone()
	if err := u.Apply(after); err != nil {
		return nil, nil, err
	}
	now, err := v.Materialize(after)
	if err != nil {
		return nil, nil, err
	}
	beforeSet := map[string]relation.Tuple{}
	for _, t := range before {
		beforeSet[t.Key()] = t
	}
	nowSet := map[string]relation.Tuple{}
	for _, t := range now {
		nowSet[t.Key()] = t
	}
	for k, t := range nowSet {
		if _, ok := beforeSet[k]; !ok {
			added = append(added, t)
		}
	}
	for k, t := range beforeSet {
		if _, ok := nowSet[k]; !ok {
			removed = append(removed, t)
		}
	}
	return added, removed, nil
}
