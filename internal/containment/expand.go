package containment

import (
	"fmt"
	"slices"

	"repro/internal/ast"
)

// Expand unfolds a nonrecursive program into the equivalent union of
// single rules for the goal predicate (the UCQ expansion of Sagiv and
// Yannakakis [1981]), by SLD-style resolution of intermediate subgoals.
// Positive intermediate subgoals branch over their alternative rules,
// each unifier binding the whole rule: the literals expanded before the
// subgoal as well as the remaining goals. Negated
// intermediate subgoals are supported in the two shapes the Section 4
// update rewritings produce:
//
//   - not p(t̄) where p has a copy rule p(X̄) :- q(Ȳ) (body variables
//     all bound by the head) contributes not q applied to the unifier,
//     provided the unifier binds no variable of t̄ (a head with a
//     constant or a repeated variable would need a disequality branch
//     beside not q, and is rejected);
//   - a fact p(c̄) among p's rules contributes the negation of t̄ = c̄,
//     i.e. the disjunction ∨ᵢ tᵢ <> cᵢ, splitting the expansion into one
//     branch per component (this is how Example 4.1's constraint C3
//     becomes "panic :- emp(E,D,S) & not dept(D) & D <> toy").
//
// Any other negated intermediate shape is rejected: its expansion would
// need universal quantification, which leaves the UCQ language.
func Expand(prog *ast.Program, goal string) ([]*ast.Rule, error) {
	if cls := recursiveCheck(prog); cls != "" {
		return nil, fmt.Errorf("containment: cannot expand recursive program (cycle through %s)", cls)
	}
	idb := prog.IDBPreds()
	fresh := 0
	const maxUnfoldings = 100000
	unfoldings := 0

	// expandGoals resolves the goal list, after the literals already
	// expanded (done) of a rule with the given head, into fully expanded
	// rules over EDB predicates and comparisons, appended to out. A
	// unifier's bindings apply to the whole rule — head, done and the
	// remaining goals — so a helper that pins or equates its arguments
	// constrains the literals before it as well as after.
	var out []*ast.Rule
	var expandGoals func(head ast.Atom, done, goals []ast.Literal) error
	expandGoals = func(head ast.Atom, done, goals []ast.Literal) error {
		if unfoldings++; unfoldings > maxUnfoldings {
			return fmt.Errorf("containment: expansion exceeds %d unfoldings", maxUnfoldings)
		}
		if len(goals) == 0 {
			out = append(out, &ast.Rule{Head: head, Body: done})
			return nil
		}
		g, rest := goals[0], goals[1:]
		switch {
		case g.IsComp(), !idb[g.Atom.Pred]:
			return expandGoals(head, append(slices.Clip(done), g), rest)
		case g.IsPos():
			for _, def := range prog.RulesFor(g.Atom.Pred) {
				fresh++
				d := def.RenameApart(fmt.Sprintf("@%d", fresh))
				s, ok := ast.Unify(d.Head.Args, g.Atom.Args, nil)
				if !ok {
					continue
				}
				apply := func(ls []ast.Literal) []ast.Literal {
					bound := make([]ast.Literal, len(ls))
					for i, l := range ls {
						bound[i] = l.Apply(s)
					}
					return bound
				}
				newGoals := append(apply(d.Body), apply(rest)...)
				if err := expandGoals(head.Apply(s), apply(done), newGoals); err != nil {
					return err
				}
			}
			return nil // no matching rule: empty union
		default: // negated intermediate subgoal
			alts, err := negAlternatives(prog, g.Atom, func() string {
				fresh++
				return fmt.Sprintf("@%d", fresh)
			})
			if err != nil {
				return err
			}
			for _, alt := range alts {
				if err := expandGoals(head, done, append(slices.Clip(alt), rest...)); err != nil {
					return err
				}
			}
			return nil
		}
	}

	goalRules := prog.RulesFor(goal)
	if len(goalRules) == 0 {
		return nil, fmt.Errorf("containment: no rules for goal predicate %s", goal)
	}
	for _, r := range goalRules {
		if err := expandGoals(r.Head, nil, r.Body); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// negAlternatives expands not p(t̄) for an intermediate predicate p into
// a disjunction of conjunctions (each inner slice is one conjunction):
// the negation of p's definition, i.e. the conjunction over p's rules of
// the negation of each rule's applicability, distributed into DNF. A copy
// rule is renamed apart from t̄ with a suffix from fresh before it is
// unified with it.
func negAlternatives(prog *ast.Program, atom ast.Atom, fresh func() string) ([][]ast.Literal, error) {
	// Each part is the DNF of the negation of one rule; the result is the
	// cartesian product (conjunction) of the parts.
	var parts [][][]ast.Literal
	for _, def := range prog.RulesFor(atom.Pred) {
		switch {
		case def.IsFact():
			if len(def.Head.Args) == 0 {
				// not p where p is unconditionally true: the whole
				// conjunction is false — no alternatives at all.
				return [][]ast.Literal{}, nil
			}
			var split [][]ast.Literal
			for i, c := range def.Head.Args {
				if c.IsVar() {
					return nil, fmt.Errorf("containment: cannot expand negation of non-ground fact %s", def)
				}
				split = append(split, []ast.Literal{
					ast.Cmp(ast.NewComparison(atom.Args[i], ast.Ne, c)),
				})
			}
			parts = append(parts, split)
		case len(def.Body) == 1 && def.Body[0].IsPos() && sameVarCopy(def):
			d := def.RenameApart(fresh())
			s, ok := ast.Unify(d.Head.Args, atom.Args, nil)
			if !ok {
				// The head cannot match t̄ at all (constant clash): this
				// rule never derives p(t̄); its negation is vacuous.
				parts = append(parts, [][]ast.Literal{{}})
				continue
			}
			for _, t := range atom.Args {
				if _, bound := s[t.Var]; t.IsVar() && bound {
					return nil, fmt.Errorf("containment: cannot expand negated intermediate subgoal not %s: the head of %s constrains its arguments", atom, def)
				}
			}
			q := d.Body[0].Atom.Apply(s)
			parts = append(parts, [][]ast.Literal{{ast.Neg(q)}})
		default:
			return nil, fmt.Errorf("containment: cannot expand negated intermediate subgoal not %s defined by %s", atom, def)
		}
	}
	alts := [][]ast.Literal{{}}
	for _, p := range parts {
		var next [][]ast.Literal
		for _, acc := range alts {
			for _, choice := range p {
				next = append(next, append(append([]ast.Literal{}, acc...), choice...))
			}
		}
		alts = next
	}
	return alts, nil
}

// sameVarCopy reports whether def is a copy rule p(X̄) :- q(Ȳ) in which
// every body variable appears in the head (so the unifier fully
// determines the body atom).
func sameVarCopy(def *ast.Rule) bool {
	headVars := map[string]bool{}
	for _, t := range def.Head.Args {
		if t.IsVar() {
			headVars[t.Var] = true
		}
	}
	for _, t := range def.Body[0].Atom.Args {
		if t.IsVar() && !headVars[t.Var] {
			return false
		}
	}
	return true
}

// recursiveCheck returns the name of a predicate on a dependency cycle,
// or "" when the program is nonrecursive.
func recursiveCheck(prog *ast.Program) string {
	idb := prog.IDBPreds()
	adj := map[string][]string{}
	for _, r := range prog.Rules {
		for _, l := range r.Body {
			if !l.IsComp() && idb[l.Atom.Pred] {
				adj[r.Head.Pred] = append(adj[r.Head.Pred], l.Atom.Pred)
			}
		}
	}
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := map[string]int{}
	var bad string
	var visit func(p string) bool
	visit = func(p string) bool {
		color[p] = gray
		for _, q := range adj[p] {
			if color[q] == gray || color[q] == white && visit(q) {
				if bad == "" {
					bad = q
				}
				return true
			}
		}
		color[p] = black
		return false
	}
	for p := range idb {
		if color[p] == white && visit(p) {
			return bad
		}
	}
	return ""
}
