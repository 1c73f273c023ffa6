package ast

import (
	"fmt"
	"sort"
	"strings"
)

// Rule is head :- body. A fact is a rule with an empty body and a ground
// head.
type Rule struct {
	Head Atom
	Body []Literal
}

// NewRule builds a rule.
func NewRule(head Atom, body ...Literal) *Rule { return &Rule{Head: head, Body: body} }

// Fact builds a bodiless rule.
func Fact(head Atom) *Rule { return &Rule{Head: head} }

// IsFact reports whether the rule has an empty body.
func (r *Rule) IsFact() bool { return len(r.Body) == 0 }

// PositiveAtoms returns the ordinary (positive, non-comparison) body atoms —
// O(C) in the paper's notation for single-rule constraints.
func (r *Rule) PositiveAtoms() []Atom {
	var out []Atom
	for _, l := range r.Body {
		if l.IsPos() {
			out = append(out, l.Atom)
		}
	}
	return out
}

// NegatedAtoms returns the negated body atoms.
func (r *Rule) NegatedAtoms() []Atom {
	var out []Atom
	for _, l := range r.Body {
		if l.IsNeg() {
			out = append(out, l.Atom)
		}
	}
	return out
}

// Comparisons returns the comparison subgoals — A(C) in the paper's
// notation for single-rule constraints.
func (r *Rule) Comparisons() []Comparison {
	var out []Comparison
	for _, l := range r.Body {
		if l.IsComp() {
			out = append(out, l.Comp)
		}
	}
	return out
}

// HasNegation reports whether any body literal is a negated atom.
func (r *Rule) HasNegation() bool {
	for _, l := range r.Body {
		if l.IsNeg() {
			return true
		}
	}
	return false
}

// HasComparison reports whether any body literal is a comparison.
func (r *Rule) HasComparison() bool {
	for _, l := range r.Body {
		if l.IsComp() {
			return true
		}
	}
	return false
}

// Vars returns the distinct variables of the rule (head and body), sorted.
func (r *Rule) Vars() []string {
	seen := map[string]bool{}
	var names []string
	add := func(vs []string) {
		for _, v := range vs {
			if !seen[v] {
				seen[v] = true
				names = append(names, v)
			}
		}
	}
	add(r.Head.Vars(nil))
	for _, l := range r.Body {
		add(l.Vars(nil))
	}
	sort.Strings(names)
	return names
}

// Apply returns a copy of the rule with substitution s applied throughout.
func (r *Rule) Apply(s Subst) *Rule {
	body := make([]Literal, len(r.Body))
	for i, l := range r.Body {
		body[i] = l.Apply(s)
	}
	return &Rule{Head: r.Head.Apply(s), Body: body}
}

// Clone returns a deep copy of the rule.
func (r *Rule) Clone() *Rule { return r.Apply(Subst{}) }

// Equal reports syntactic equality (same literal order).
func (r *Rule) Equal(o *Rule) bool {
	if !r.Head.Equal(o.Head) || len(r.Body) != len(o.Body) {
		return false
	}
	for i := range r.Body {
		if !r.Body[i].Equal(o.Body[i]) {
			return false
		}
	}
	return true
}

// CheckSafe verifies range restriction: every head variable, every
// variable of a negated atom, and every comparison variable must occur in
// some positive body atom. The paper assumes this throughout (Section 5
// states it explicitly for comparison variables).
func (r *Rule) CheckSafe() error {
	bound := map[string]bool{}
	for _, a := range r.PositiveAtoms() {
		for _, v := range a.Vars(nil) {
			bound[v] = true
		}
	}
	check := func(vs []string, what string) error {
		for _, v := range vs {
			if !bound[v] {
				return fmt.Errorf("ast: unsafe rule %s: variable %s in %s does not occur in a positive subgoal", r, v, what)
			}
		}
		return nil
	}
	if err := check(r.Head.Vars(nil), "head"); err != nil {
		return err
	}
	for _, a := range r.NegatedAtoms() {
		if err := check(a.Vars(nil), "negated subgoal "+a.String()); err != nil {
			return err
		}
	}
	for _, c := range r.Comparisons() {
		if err := check(c.Vars(nil), "comparison "+c.String()); err != nil {
			return err
		}
	}
	return nil
}

// String renders the rule in source syntax, terminated by a period.
func (r *Rule) String() string {
	if r.IsFact() {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, l := range r.Body {
		parts[i] = l.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, " & ") + "."
}

// Program is a list of rules. A constraint query is a Program whose goal
// predicate is panic; a conjunctive-query constraint is a Program with a
// single panic rule over database predicates.
type Program struct {
	Rules []*Rule
}

// NewProgram builds a program from rules.
func NewProgram(rules ...*Rule) *Program { return &Program{Rules: rules} }

// Clone returns a deep copy.
func (p *Program) Clone() *Program {
	rules := make([]*Rule, len(p.Rules))
	for i, r := range p.Rules {
		rules[i] = r.Clone()
	}
	return &Program{Rules: rules}
}

// IDBPreds returns the set of intensional predicates: those appearing in
// some rule head.
func (p *Program) IDBPreds() map[string]bool {
	idb := map[string]bool{}
	for _, r := range p.Rules {
		idb[r.Head.Pred] = true
	}
	return idb
}

// EDBPreds returns the sorted extensional predicates: those appearing in
// rule bodies but never in a head.
func (p *Program) EDBPreds() []string {
	idb := p.IDBPreds()
	seen := map[string]bool{}
	var out []string
	for _, r := range p.Rules {
		for _, l := range r.Body {
			if l.IsComp() {
				continue
			}
			if pred := l.Atom.Pred; !idb[pred] && !seen[pred] {
				seen[pred] = true
				out = append(out, pred)
			}
		}
	}
	sort.Strings(out)
	return out
}

// Mentions reports whether some body literal of the program names rel —
// the test of the checker's phase 1: a constraint that does not mention
// the updated relation is unaffected by the update.
func (p *Program) Mentions(rel string) bool {
	for _, r := range p.Rules {
		for _, l := range r.Body {
			if !l.IsComp() && l.Atom.Pred == rel {
				return true
			}
		}
	}
	return false
}

// Preds returns every predicate of the program with its arity, sorted by
// name. Inconsistent arities for one predicate are reported by Validate.
func (p *Program) Preds() map[string]int {
	out := map[string]int{}
	note := func(a Atom) {
		if _, ok := out[a.Pred]; !ok {
			out[a.Pred] = a.Arity()
		}
	}
	for _, r := range p.Rules {
		note(r.Head)
		for _, l := range r.Body {
			if !l.IsComp() {
				note(l.Atom)
			}
		}
	}
	return out
}

// RulesFor returns the rules whose head predicate is pred, in order.
func (p *Program) RulesFor(pred string) []*Rule {
	var out []*Rule
	for _, r := range p.Rules {
		if r.Head.Pred == pred {
			out = append(out, r)
		}
	}
	return out
}

// HasNegation reports whether any rule uses a negated subgoal.
func (p *Program) HasNegation() bool {
	for _, r := range p.Rules {
		if r.HasNegation() {
			return true
		}
	}
	return false
}

// HasComparison reports whether any rule uses an arithmetic comparison.
func (p *Program) HasComparison() bool {
	for _, r := range p.Rules {
		if r.HasComparison() {
			return true
		}
	}
	return false
}

// Validate checks that the program is well formed: consistent arities,
// safe rules, and no comparison predicates used as ordinary atoms.
func (p *Program) Validate() error {
	arity := map[string]int{}
	note := func(a Atom) error {
		if n, ok := arity[a.Pred]; ok && n != a.Arity() {
			return fmt.Errorf("ast: predicate %s used with arities %d and %d", a.Pred, n, a.Arity())
		}
		arity[a.Pred] = a.Arity()
		return nil
	}
	for _, r := range p.Rules {
		if err := note(r.Head); err != nil {
			return err
		}
		for _, l := range r.Body {
			if l.IsComp() {
				continue
			}
			if err := note(l.Atom); err != nil {
				return err
			}
		}
		if err := r.CheckSafe(); err != nil {
			return err
		}
	}
	return nil
}

// String renders the program, one rule per line.
func (p *Program) String() string {
	parts := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		parts[i] = r.String()
	}
	return strings.Join(parts, "\n")
}

// RenameApart returns a copy of the rule with every variable renamed by
// appending the given suffix, guaranteeing disjointness from any rule not
// using that suffix. Used before searching for containment mappings.
func (r *Rule) RenameApart(suffix string) *Rule {
	s := Subst{}
	for _, v := range r.Vars() {
		s[v] = V(v + suffix)
	}
	return r.Apply(s)
}
