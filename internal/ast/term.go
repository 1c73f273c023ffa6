// Package ast defines the abstract syntax of constraint queries: the
// datalog-with-comparisons language of Gupta, Sagiv, Ullman and Widom,
// "Constraint Checking with Partial Information" (PODS 1994).
//
// A constraint is a program whose distinguished 0-ary goal predicate is
// "panic" (Section 2 of the paper): the database satisfies the constraint
// exactly when the program derives nothing for panic.
//
// Terms are variables or constants; atoms are predicates applied to terms;
// a rule body is a conjunction of positive atoms, negated atoms, and
// arithmetic comparisons. A program is a list of rules.
package ast

import (
	"fmt"
	"math/big"
	"strconv"
	"strings"
)

// ValueKind discriminates the constant domains.
type ValueKind int

const (
	// NumberValue is a rational numeric constant (integers and decimals).
	NumberValue ValueKind = iota
	// StringValue is a symbolic constant such as toy or "New York".
	StringValue
)

// Value is a constant in the database domain. Numbers are exact rationals
// so that the arithmetic decision procedures need no floating-point care;
// strings are symbolic constants ordered lexicographically.
//
// The comparison domain is treated as a dense total order: all numbers
// precede all strings, numbers compare numerically, strings compare
// lexicographically. Density is the standard assumption under which the
// paper's comparison reasoning (Theorem 5.1, Section 6) is complete.
type Value struct {
	Kind ValueKind
	Num  *big.Rat // set when Kind == NumberValue
	Str  string   // set when Kind == StringValue
}

// Int returns a numeric Value for n.
func Int(n int64) Value { return Value{Kind: NumberValue, Num: new(big.Rat).SetInt64(n)} }

// Float returns a numeric Value for f.
func Float(f float64) Value { return Value{Kind: NumberValue, Num: new(big.Rat).SetFloat64(f)} }

// Rat returns a numeric Value for the rational p/q. It panics if q == 0.
func Rat(p, q int64) Value { return Value{Kind: NumberValue, Num: big.NewRat(p, q)} }

// Str returns a string (symbolic) Value.
func Str(s string) Value { return Value{Kind: StringValue, Str: s} }

// Compare orders v against w in the global dense total order:
// numbers first (numerically), then strings (lexicographically).
// It returns -1, 0, or +1.
func (v Value) Compare(w Value) int {
	if v.Kind != w.Kind {
		if v.Kind == NumberValue {
			return -1
		}
		return 1
	}
	if v.Kind == NumberValue {
		// Integer fast path: big.Rat.Cmp cross-multiplies via scaleDenom,
		// allocating on every call, even when both sides are integers —
		// which is nearly every comparison the evaluator runs. Integral
		// rationals compare by numerator alone, allocation-free.
		if v.Num.IsInt() && w.Num.IsInt() {
			return v.Num.Num().Cmp(w.Num.Num())
		}
		return v.Num.Cmp(w.Num)
	}
	return strings.Compare(v.Str, w.Str)
}

// Equal reports whether v and w are the same constant.
func (v Value) Equal(w Value) bool { return v.Compare(w) == 0 }

// Key returns a canonical string encoding of v, suitable for map keys.
// Distinct constants have distinct keys.
func (v Value) Key() string {
	if v.Kind == NumberValue {
		return "#" + v.Num.RatString()
	}
	return "$" + v.Str
}

// String renders v in source syntax: numbers as decimals or p/q, strings
// bare when they look like a lower-case identifier, quoted otherwise —
// with only '"' and '\' escaped, as the parser reads a quoted string.
func (v Value) String() string {
	if v.Kind == NumberValue {
		if v.Num.IsInt() {
			return v.Num.Num().String()
		}
		if f, exact := v.Num.Float64(); exact {
			return strconv.FormatFloat(f, 'g', -1, 64)
		}
		return v.Num.RatString()
	}
	if isBareIdent(v.Str) {
		return v.Str
	}
	return `"` + quoteEscaper.Replace(v.Str) + `"`
}

var quoteEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`)

func isBareIdent(s string) bool {
	if s == "" || s == "not" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z':
		case r == '_':
		case i > 0 && (r >= '0' && r <= '9' || r >= 'A' && r <= 'Z'):
		default:
			return false
		}
	}
	return s[0] >= 'a' && s[0] <= 'z'
}

// Term is a variable or a constant. Following the paper's Prolog
// convention, variable names begin with an upper-case letter and constants
// with a lower-case letter or a digit.
type Term struct {
	// Var is the variable name; empty for constants.
	Var string
	// Const is the constant value; meaningful only when Var == "".
	Const Value
}

// V returns a variable term named name.
func V(name string) Term { return Term{Var: name} }

// C returns a constant term holding v.
func C(v Value) Term { return Term{Const: v} }

// CInt returns a constant term for the integer n.
func CInt(n int64) Term { return C(Int(n)) }

// CStr returns a constant term for the symbol s.
func CStr(s string) Term { return C(Str(s)) }

// IsVar reports whether t is a variable.
func (t Term) IsVar() bool { return t.Var != "" }

// IsConst reports whether t is a constant.
func (t Term) IsConst() bool { return t.Var == "" }

// Equal reports whether two terms are syntactically identical.
func (t Term) Equal(u Term) bool {
	if t.IsVar() != u.IsVar() {
		return false
	}
	if t.IsVar() {
		return t.Var == u.Var
	}
	return t.Const.Equal(u.Const)
}

// Key returns a canonical map key for t, distinct across all terms.
func (t Term) Key() string {
	if t.IsVar() {
		return "V" + t.Var
	}
	return "C" + t.Const.Key()
}

// String renders the term in source syntax.
func (t Term) String() string {
	if t.IsVar() {
		return t.Var
	}
	return t.Const.String()
}

// Subst is a mapping from variable names to terms. Applying a Subst
// replaces every variable that has a binding; unbound variables are left
// untouched.
type Subst map[string]Term

// Apply returns t with s applied. Bindings are not chased transitively;
// callers that need idempotent substitutions should build them resolved.
func (s Subst) Apply(t Term) Term {
	if t.IsVar() {
		if b, ok := s[t.Var]; ok {
			return b
		}
	}
	return t
}

// Compose returns a substitution equivalent to applying s first and then
// u: for every binding v→t in s the result maps v→u(t), and bindings of u
// on variables not bound by s are kept.
func (s Subst) Compose(u Subst) Subst {
	out := make(Subst, len(s)+len(u))
	for v, t := range s {
		out[v] = u.Apply(t)
	}
	for v, t := range u {
		if _, ok := out[v]; !ok {
			out[v] = t
		}
	}
	return out
}

// Clone returns a copy of s.
func (s Subst) Clone() Subst {
	out := make(Subst, len(s))
	for v, t := range s {
		out[v] = t
	}
	return out
}

// Unify attempts to unify the term lists a and b, extending base (which
// may be nil). Variables bind to terms; two constants unify only when
// equal. It returns the extended substitution, or false when unification
// fails. Occurs checks are unnecessary because terms are flat.
func Unify(a, b []Term, base Subst) (Subst, bool) {
	if len(a) != len(b) {
		return nil, false
	}
	s := base.Clone()
	if s == nil {
		s = Subst{}
	}
	for i := range a {
		x, y := resolve(s, a[i]), resolve(s, b[i])
		switch {
		case x.IsVar() && y.IsVar():
			if x.Var != y.Var {
				s[x.Var] = y
			}
		case x.IsVar():
			s[x.Var] = y
		case y.IsVar():
			s[y.Var] = x
		default:
			if !x.Const.Equal(y.Const) {
				return nil, false
			}
		}
	}
	return s, true
}

// resolve chases bindings in s until reaching an unbound variable or a
// constant. Substitutions built by Unify have no cycles.
func resolve(s Subst, t Term) Term {
	for t.IsVar() {
		b, ok := s[t.Var]
		if !ok {
			return t
		}
		t = b
	}
	return t
}

// Resolve chases t through s to its final binding.
func (s Subst) Resolve(t Term) Term { return resolve(s, t) }

var _ = fmt.Stringer(Term{})
