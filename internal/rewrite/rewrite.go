// Package rewrite implements the Section 4 update rewritings: given a
// constraint C and an update, build a constraint C' over the pre-update
// database that holds iff C holds after the update. Checking that C
// survives the update then reduces to the subsumption question
// C' ⊑ C ∪ C1 ∪ … ∪ Cn against the constraints known to hold before
// (the paper's first approach in Section 4).
//
// Insertion uses the add-rule encoding of Theorem 4.2 (preserving the
// eight Fig 4.1 classes that permit multiple rules); deletion offers both
// encodings of Theorem 4.3 — the arithmetic <>-split of Example 4.2 and
// the negated-subgoal variant — preserving the six Fig 4.2 classes.
package rewrite

import (
	"fmt"
	"sync/atomic"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/subsume"
)

// Insert returns the constraint C' reflecting the insertion of t into
// rel: a fresh predicate rel$ins is defined as rel plus the new tuple,
// and every occurrence of rel in c is redirected to it (Theorem 4.2).
func Insert(c *ast.Program, rel string, t relation.Tuple) (*ast.Program, error) {
	arity, uses := relUsage(c, rel)
	if !uses {
		// The constraint does not mention the updated relation: it is
		// trivially unaffected; C' = C.
		return c.Clone(), nil
	}
	if arity != len(t) {
		return nil, fmt.Errorf("rewrite: inserting arity-%d tuple into %s/%d", len(t), rel, arity)
	}
	aux := rel + "$ins"
	if _, clash := c.Preds()[aux]; clash {
		return nil, fmt.Errorf("rewrite: auxiliary predicate %s already in use", aux)
	}
	out := renamePred(c, rel, aux)
	vars := freshVars(arity)
	out.Rules = append(out.Rules,
		ast.NewRule(ast.Atom{Pred: aux, Args: vars}, ast.Pos(ast.Atom{Pred: rel, Args: vars})),
		ast.Fact(ast.Atom{Pred: aux, Args: t.Terms()}),
	)
	return out, nil
}

// DeleteArith returns C' reflecting the deletion of t from rel using the
// arithmetic encoding of Example 4.2: rel$del selects the tuples of rel
// differing from t in at least one component, one rule per component.
func DeleteArith(c *ast.Program, rel string, t relation.Tuple) (*ast.Program, error) {
	return deleteWith(c, rel, t, func(vars []ast.Term, i int) []ast.Literal {
		return []ast.Literal{ast.Cmp(ast.NewComparison(vars[i], ast.Ne, ast.C(t[i])))}
	}, nil)
}

// DeleteNeg returns C' reflecting the deletion of t from rel using the
// negated-subgoal encoding (the isJones trick of Section 4): component i
// differs from t[i] when it is not in the singleton relation is$rel$i.
func DeleteNeg(c *ast.Program, rel string, t relation.Tuple) (*ast.Program, error) {
	var extra []*ast.Rule
	return deleteWith(c, rel, t, func(vars []ast.Term, i int) []ast.Literal {
		pred := fmt.Sprintf("is$%s$%d", rel, i)
		extra = append(extra, ast.Fact(ast.NewAtom(pred, ast.C(t[i]))))
		return []ast.Literal{ast.Neg(ast.NewAtom(pred, vars[i]))}
	}, &extra)
}

// deleteWith shares the per-component split between the two encodings.
func deleteWith(c *ast.Program, rel string, t relation.Tuple, differ func(vars []ast.Term, i int) []ast.Literal, extra *[]*ast.Rule) (*ast.Program, error) {
	arity, uses := relUsage(c, rel)
	if !uses {
		return c.Clone(), nil
	}
	if arity != len(t) {
		return nil, fmt.Errorf("rewrite: deleting arity-%d tuple from %s/%d", len(t), rel, arity)
	}
	if arity == 0 {
		return nil, fmt.Errorf("rewrite: cannot delete from 0-ary relation %s", rel)
	}
	aux := rel + "$del"
	if _, clash := c.Preds()[aux]; clash {
		return nil, fmt.Errorf("rewrite: auxiliary predicate %s already in use", aux)
	}
	out := renamePred(c, rel, aux)
	vars := freshVars(arity)
	for i := 0; i < arity; i++ {
		body := []ast.Literal{ast.Pos(ast.Atom{Pred: rel, Args: vars})}
		body = append(body, differ(vars, i)...)
		out.Rules = append(out.Rules, &ast.Rule{Head: ast.Atom{Pred: aux, Args: vars}, Body: body})
	}
	if extra != nil {
		out.Rules = append(out.Rules, *extra...)
	}
	return out, nil
}

// Rewrite dispatches on the update kind, using the arithmetic deletion
// encoding by default.
func Rewrite(c *ast.Program, u store.Update) (*ast.Program, error) {
	if u.Insert {
		return Insert(c, u.Relation, u.Tuple)
	}
	return DeleteArith(c, u.Relation, u.Tuple)
}

// UpdateSafe performs the Section 4 partial-information test: it rewrites
// c for the update and asks whether the result is subsumed by c together
// with the other constraints known to hold before the update. A Yes
// verdict certifies — from constraints and update alone, no data — that
// c still holds afterwards.
func UpdateSafe(c *ast.Program, others []*ast.Program, u store.Update) (subsume.Result, error) {
	return UpdateSafeAmong(c, append([]*ast.Program{c}, others...), u)
}

// UpdateSafeAmong is UpdateSafe for a caller that already holds the full
// constraint set: set is every constraint known to hold before the update
// and may (should) include c itself, so the per-constraint "rest" slice
// never needs to be materialized. Subsumption is a property of the set —
// order and duplication do not change the verdict — which makes the one
// shared slice reusable across all constraints of an update.
func UpdateSafeAmong(c *ast.Program, set []*ast.Program, u store.Update) (subsume.Result, error) {
	calls.Add(1)
	cPrime, err := Rewrite(c, u)
	if err != nil {
		return subsume.Result{}, err
	}
	return subsume.Subsumes(cPrime, set)
}

// calls counts UpdateSafeAmong's runs (UpdateSafeCalls).
var calls atomic.Int64

// UpdateSafeCalls returns how many times UpdateSafeAmong (and UpdateSafe
// through it) has run in this process: a checker runs it when its
// constraint set changes, and a decision should not.
func UpdateSafeCalls() int64 { return calls.Load() }

// relUsage reports the arity of rel within c and whether c mentions it.
func relUsage(c *ast.Program, rel string) (arity int, uses bool) {
	for _, r := range c.Rules {
		for _, l := range r.Body {
			if !l.IsComp() && l.Atom.Pred == rel {
				return l.Atom.Arity(), true
			}
		}
		if r.Head.Pred == rel {
			return r.Head.Arity(), true
		}
	}
	return 0, false
}

// renamePred returns a copy of c with every occurrence of pred renamed.
func renamePred(c *ast.Program, pred, to string) *ast.Program {
	out := c.Clone()
	for _, r := range out.Rules {
		if r.Head.Pred == pred {
			r.Head.Pred = to
		}
		for i := range r.Body {
			if !r.Body[i].IsComp() && r.Body[i].Atom.Pred == pred {
				r.Body[i].Atom.Pred = to
			}
		}
	}
	return out
}

// freshVars returns variables U$1..U$n, a namespace the parser cannot
// produce (user variables cannot contain '$').
func freshVars(n int) []ast.Term {
	vars := make([]ast.Term, n)
	for i := range vars {
		vars[i] = ast.V(fmt.Sprintf("U$%d", i+1))
	}
	return vars
}
