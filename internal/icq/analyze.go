package icq

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/relation"
)

// IsICQ reports whether the CQC is independently constrained (Section 6):
// every comparison other than an equality involves at most one remote
// variable.
func IsICQ(c *ast.CQC) bool {
	remote := map[string]bool{}
	for _, v := range c.RemoteVars() {
		remote[v] = true
	}
	for _, cmp := range c.Rule.Comparisons() {
		if cmp.Op == ast.Eq {
			continue
		}
		n := 0
		for _, v := range cmp.Vars(nil) {
			if remote[v] {
				n++
			}
		}
		if n > 1 {
			return false
		}
	}
	return true
}

// Analysis is the compiled form of a single-remote-variable ICQ: for each
// local tuple it can produce the forbidden interval(s) of the remote
// variable.
type Analysis struct {
	CQC       *ast.CQC
	RemoteVar string
	// colOf maps each local variable to its column in the local relation,
	// arity is that relation's.
	colOf map[string]int
	arity int
	// bounds on the remote variable: each is (term, op) read as
	// "term op Z" for lower bounds and "Z op term" for upper bounds.
	lowers  []boundTerm      // term < Z or term <= Z (or Z = term)
	uppers  []boundTerm      // Z < term or Z <= term (or Z = term)
	nes     []ast.Term       // Z <> term
	filters []ast.Comparison // comparisons not involving the remote var
	unsat   bool             // a vacuously false comparison (Z < Z): nothing is ever forbidden
}

type boundTerm struct {
	term   ast.Term
	strict bool
}

// Analyze compiles a normal-form ICQ with exactly one remote atom whose
// constrained variable is the single comparison-constrained remote
// variable. Other remote variables may exist in the same atom but must be
// unconstrained (they are irrelevant to the interval logic). Constraints
// with several remote atoms or several constrained remote variables are
// rejected — they fall outside the canonical Section 6 construction and
// are handled by the general Theorem 5.2 test instead.
func Analyze(c *ast.CQC) (*Analysis, error) {
	if !IsICQ(c) {
		return nil, fmt.Errorf("icq: constraint is not independently constrained: %s", c)
	}
	if n := len(c.RemoteAtoms()); n != 1 {
		return nil, fmt.Errorf("icq: canonical analysis requires exactly one remote subgoal, found %d", n)
	}
	remote := map[string]bool{}
	for _, v := range c.RemoteVars() {
		remote[v] = true
	}
	a := &Analysis{CQC: c, colOf: map[string]int{}, arity: c.LocalAtom().Arity()}
	for i, t := range c.LocalAtom().Args {
		a.colOf[t.Var] = i
	}
	// Find the constrained remote variable.
	constrained := map[string]bool{}
	for _, cmp := range c.Rule.Comparisons() {
		for _, v := range cmp.Vars(nil) {
			if remote[v] {
				constrained[v] = true
			}
		}
	}
	switch len(constrained) {
	case 0:
		// No comparison touches any remote variable: the forbidden
		// region is everything whenever the filters hold. Model as an
		// unconstrained pseudo-variable.
		a.RemoteVar = ""
	case 1:
		for v := range constrained {
			a.RemoteVar = v
		}
	default:
		return nil, fmt.Errorf("icq: canonical analysis requires one constrained remote variable, found %d", len(constrained))
	}
	for _, cmp := range c.Rule.Comparisons() {
		lz := cmp.Left.IsVar() && cmp.Left.Var == a.RemoteVar
		rz := cmp.Right.IsVar() && cmp.Right.Var == a.RemoteVar
		switch {
		case lz && rz:
			if cmp.Op == ast.Ne || cmp.Op == ast.Lt || cmp.Op == ast.Gt {
				// Z <> Z or Z < Z: unsatisfiable — nothing ever forbidden.
				a.unsat = true
			}
			// Z = Z, Z <= Z: vacuous.
		case lz: // Z op term
			a.addBound(cmp.Op, cmp.Right)
		case rz: // term op Z == Z flip(op) term
			a.addBound(cmp.Op.Flip(), cmp.Left)
		default:
			a.filters = append(a.filters, cmp)
		}
	}
	return a, nil
}

// addBound records "Z op term".
func (a *Analysis) addBound(op ast.CompOp, term ast.Term) {
	switch op {
	case ast.Lt:
		a.uppers = append(a.uppers, boundTerm{term: term, strict: true})
	case ast.Le:
		a.uppers = append(a.uppers, boundTerm{term: term})
	case ast.Gt:
		a.lowers = append(a.lowers, boundTerm{term: term, strict: true})
	case ast.Ge:
		a.lowers = append(a.lowers, boundTerm{term: term})
	case ast.Eq:
		a.lowers = append(a.lowers, boundTerm{term: term})
		a.uppers = append(a.uppers, boundTerm{term: term})
	case ast.Ne:
		a.nes = append(a.nes, term)
	}
}

// termValue resolves a bound term against a local tuple.
func (a *Analysis) termValue(t relation.Tuple, term ast.Term) (ast.Value, error) {
	if term.IsConst() {
		return term.Const, nil
	}
	col, ok := a.colOf[term.Var]
	if !ok {
		return ast.Value{}, fmt.Errorf("icq: comparison variable %s is neither local nor the remote variable", term.Var)
	}
	return t[col], nil
}

// IntervalsFor returns the forbidden intervals the local tuple imposes on
// the remote variable: the intersection of all bounds, minus the <>
// points, subject to the tuple passing the local-only filters. The result
// may be empty (the tuple forbids nothing).
func (a *Analysis) IntervalsFor(t relation.Tuple) ([]Interval, error) {
	return a.appendIntervals(nil, t)
}

// appendIntervals appends IntervalsFor's intervals to dst.
func (a *Analysis) appendIntervals(dst []Interval, t relation.Tuple) ([]Interval, error) {
	if len(t) != a.arity {
		return nil, fmt.Errorf("icq: tuple arity %d does not match local atom", len(t))
	}
	if a.unsat {
		return nil, nil
	}
	for _, f := range a.filters {
		lv, err := a.termValue(t, f.Left)
		if err != nil {
			return nil, err
		}
		rv, err := a.termValue(t, f.Right)
		if err != nil {
			return nil, err
		}
		if !f.Op.Eval(lv, rv) {
			return nil, nil // filters fail: nothing forbidden
		}
	}
	iv := Interval{Lo: Unbounded(), Hi: Unbounded()}
	for _, b := range a.lowers {
		v, err := a.termValue(t, b.term)
		if err != nil {
			return nil, err
		}
		iv = iv.Intersect(Interval{Lo: Endpoint{Value: v, Open: b.strict}, Hi: Unbounded()})
	}
	for _, b := range a.uppers {
		v, err := a.termValue(t, b.term)
		if err != nil {
			return nil, err
		}
		iv = iv.Intersect(Interval{Lo: Unbounded(), Hi: Endpoint{Value: v, Open: b.strict}})
	}
	out := []Interval{iv}
	for _, ne := range a.nes {
		v, err := a.termValue(t, ne)
		if err != nil {
			return nil, err
		}
		var next []Interval
		for _, piece := range out {
			next = append(next, piece.SubtractPoint(v)...)
		}
		out = next
	}
	for _, piece := range out {
		if !piece.Empty() {
			dst = append(dst, piece)
		}
	}
	return dst, nil
}

// CertifyInsert is the complete local test, direct route: inserting t is
// safe (cannot newly violate the constraint, which held before) iff every
// forbidden interval of t is covered by the union of the forbidden
// intervals of the existing local tuples L.
func (a *Analysis) CertifyInsert(t relation.Tuple, L []relation.Tuple) (bool, error) {
	cover, err := a.CoverOf(L)
	if err != nil {
		return false, err
	}
	return a.CertifyAgainst(t, cover)
}

// CoverOf returns the union of the forbidden intervals of the local
// tuples L. It depends on L alone, so a caller deciding many inserts
// against one L builds it once (core.Checker keeps it per relation
// version).
func (a *Analysis) CoverOf(L []relation.Tuple) (Cover, error) {
	var existing []Interval
	for _, s := range L {
		ivs, err := a.IntervalsFor(s)
		if err != nil {
			return nil, err
		}
		existing = append(existing, ivs...)
	}
	return Union(existing), nil
}

// CertifyAgainst is CertifyInsert against the cover of the existing local
// tuples: one binary search per forbidden interval of t.
func (a *Analysis) CertifyAgainst(t relation.Tuple, cover Cover) (bool, error) {
	var buf [4]Interval // a tuple forbids one interval unless <> splits it
	targets, err := a.appendIntervals(buf[:0], t)
	if err != nil {
		return false, err
	}
	for _, target := range targets {
		if !cover.Covers(target) {
			return false, nil
		}
	}
	return true, nil
}
