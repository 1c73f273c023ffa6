package ast

import (
	"fmt"
	"sort"
	"strings"
)

// PanicPred is the distinguished 0-ary goal predicate of every constraint
// query (Section 2 of the paper).
const PanicPred = "panic"

// Atom is a predicate applied to a list of terms, e.g. emp(E, D, S).
type Atom struct {
	Pred string
	Args []Term
}

// NewAtom builds an atom.
func NewAtom(pred string, args ...Term) Atom { return Atom{Pred: pred, Args: args} }

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// Apply returns the atom with substitution s applied to every argument.
func (a Atom) Apply(s Subst) Atom {
	args := make([]Term, len(a.Args))
	for i, t := range a.Args {
		args[i] = s.Resolve(t)
	}
	return Atom{Pred: a.Pred, Args: args}
}

// Equal reports syntactic equality.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !a.Args[i].Equal(b.Args[i]) {
			return false
		}
	}
	return true
}

// Vars appends the names of variables occurring in a to dst, in order of
// occurrence, possibly with duplicates.
func (a Atom) Vars(dst []string) []string {
	for _, t := range a.Args {
		if t.IsVar() {
			dst = append(dst, t.Var)
		}
	}
	return dst
}

// String renders the atom in source syntax.
func (a Atom) String() string {
	if len(a.Args) == 0 {
		return a.Pred
	}
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Pred + "(" + strings.Join(parts, ",") + ")"
}

// CompOp is an arithmetic comparison operator.
type CompOp int

// The six comparison operators of the constraint language.
const (
	Lt CompOp = iota // <
	Le               // <=
	Eq               // =
	Ne               // <>
	Ge               // >=
	Gt               // >
)

// String renders the operator in source syntax.
func (op CompOp) String() string {
	switch op {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Eq:
		return "="
	case Ne:
		return "<>"
	case Ge:
		return ">="
	case Gt:
		return ">"
	}
	return fmt.Sprintf("CompOp(%d)", int(op))
}

// Negate returns the complement of op over a total order:
// ¬(<) is >=, ¬(=) is <>, and so on.
func (op CompOp) Negate() CompOp {
	switch op {
	case Lt:
		return Ge
	case Le:
		return Gt
	case Eq:
		return Ne
	case Ne:
		return Eq
	case Ge:
		return Lt
	case Gt:
		return Le
	}
	panic("ast: invalid CompOp")
}

// Flip returns the operator with its operands swapped: x op y iff y Flip(op) x.
func (op CompOp) Flip() CompOp {
	switch op {
	case Lt:
		return Gt
	case Le:
		return Ge
	case Ge:
		return Le
	case Gt:
		return Lt
	}
	return op // = and <> are symmetric
}

// Eval evaluates c1 op c2 over the global dense order on constants.
func (op CompOp) Eval(c1, c2 Value) bool {
	c := c1.Compare(c2)
	switch op {
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Eq:
		return c == 0
	case Ne:
		return c != 0
	case Ge:
		return c >= 0
	case Gt:
		return c > 0
	}
	panic("ast: invalid CompOp")
}

// Comparison is an arithmetic comparison subgoal such as S < 100.
type Comparison struct {
	Left  Term
	Right Term
	Op    CompOp
}

// NewComparison builds a comparison subgoal.
func NewComparison(l Term, op CompOp, r Term) Comparison {
	return Comparison{Left: l, Right: r, Op: op}
}

// Apply returns the comparison with s applied to both sides.
func (c Comparison) Apply(s Subst) Comparison {
	return Comparison{Left: s.Resolve(c.Left), Right: s.Resolve(c.Right), Op: c.Op}
}

// Equal reports syntactic equality.
func (c Comparison) Equal(d Comparison) bool {
	return c.Op == d.Op && c.Left.Equal(d.Left) && c.Right.Equal(d.Right)
}

// Negate returns the complementary comparison (¬(x<y) ≡ x>=y, …).
func (c Comparison) Negate() Comparison {
	return Comparison{Left: c.Left, Right: c.Right, Op: c.Op.Negate()}
}

// Ground reports whether both sides are constants, and if so the truth
// value of the comparison.
func (c Comparison) Ground() (value, ground bool) {
	if c.Left.IsConst() && c.Right.IsConst() {
		return c.Op.Eval(c.Left.Const, c.Right.Const), true
	}
	return false, false
}

// Vars appends the names of variables in c to dst.
func (c Comparison) Vars(dst []string) []string {
	if c.Left.IsVar() {
		dst = append(dst, c.Left.Var)
	}
	if c.Right.IsVar() {
		dst = append(dst, c.Right.Var)
	}
	return dst
}

// String renders the comparison in source syntax.
func (c Comparison) String() string {
	return c.Left.String() + " " + c.Op.String() + " " + c.Right.String()
}

// Literal is one body subgoal: a positive atom, a negated atom, or a
// comparison. Exactly one of Atom (with Negated) or Comp is meaningful;
// IsComp discriminates.
type Literal struct {
	Atom    Atom
	Negated bool
	Comp    Comparison
	isComp  bool
}

// Pos returns a positive atom literal.
func Pos(a Atom) Literal { return Literal{Atom: a} }

// Neg returns a negated atom literal.
func Neg(a Atom) Literal { return Literal{Atom: a, Negated: true} }

// Cmp returns a comparison literal.
func Cmp(c Comparison) Literal { return Literal{Comp: c, isComp: true} }

// IsComp reports whether the literal is an arithmetic comparison.
func (l Literal) IsComp() bool { return l.isComp }

// IsPos reports whether the literal is a positive (ordinary, unnegated) atom.
func (l Literal) IsPos() bool { return !l.isComp && !l.Negated }

// IsNeg reports whether the literal is a negated atom.
func (l Literal) IsNeg() bool { return !l.isComp && l.Negated }

// Harmful reports whether the literal is an occurrence of rel through
// which an update of that polarity can create new derivations: a
// positive occurrence for an insert, a negated one for a delete.
func (l Literal) Harmful(rel string, insert bool) bool {
	if l.isComp || l.Atom.Pred != rel {
		return false
	}
	return l.Negated != insert
}

// Apply returns the literal with substitution s applied.
func (l Literal) Apply(s Subst) Literal {
	if l.isComp {
		return Cmp(l.Comp.Apply(s))
	}
	return Literal{Atom: l.Atom.Apply(s), Negated: l.Negated}
}

// Equal reports syntactic equality.
func (l Literal) Equal(m Literal) bool {
	if l.isComp != m.isComp {
		return false
	}
	if l.isComp {
		return l.Comp.Equal(m.Comp)
	}
	return l.Negated == m.Negated && l.Atom.Equal(m.Atom)
}

// Vars appends the names of variables occurring in l to dst.
func (l Literal) Vars(dst []string) []string {
	if l.isComp {
		return l.Comp.Vars(dst)
	}
	return l.Atom.Vars(dst)
}

// String renders the literal in source syntax.
func (l Literal) String() string {
	switch {
	case l.isComp:
		return l.Comp.String()
	case l.Negated:
		return "not " + l.Atom.String()
	default:
		return l.Atom.String()
	}
}

// SortedVarSet returns the distinct variable names in the given literals,
// sorted, for deterministic iteration.
func SortedVarSet(lits []Literal) []string {
	seen := map[string]bool{}
	var names []string
	for _, l := range lits {
		for _, v := range l.Vars(nil) {
			if !seen[v] {
				seen[v] = true
				names = append(names, v)
			}
		}
	}
	sort.Strings(names)
	return names
}
