// Package naive is a brute-force datalog evaluator: it grounds every rule
// over the active domain and iterates to a fixpoint, stratum by stratum.
// It shares no code with internal/eval — no planner, no join engine, no
// index — so the tests of eval, residual and core hold their verdicts to
// it as an independent reference. Exponential in the number of variables
// per rule: usable only on tiny instances, which is what an oracle is for.
package naive

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/store"
)

// Facts are the derived tuples per predicate, keyed by Tuple.Key.
type Facts map[string]map[string]relation.Tuple

// Eval derives every IDB fact of prog over db, which it only reads
// (through Contains, so no read counter moves). Programs whose negation
// runs through recursion are refused.
func Eval(prog *ast.Program, db *store.Store) (Facts, error) {
	strata, err := stratify(prog)
	if err != nil {
		return nil, err
	}
	// The active domain: every constant of the database and the program.
	var adom []ast.Value
	seen := map[string]bool{}
	add := func(vs ...ast.Value) {
		for _, v := range vs {
			if !seen[v.Key()] {
				seen[v.Key()] = true
				adom = append(adom, v)
			}
		}
	}
	for _, name := range db.Names() {
		db.Relation(name).Each(func(tu relation.Tuple) bool { add(tu...); return true })
	}
	for _, r := range prog.Rules {
		terms := r.Head.Args
		for _, l := range r.Body {
			if l.IsComp() {
				terms = append(terms[:len(terms):len(terms)], l.Comp.Left, l.Comp.Right)
			} else {
				terms = append(terms[:len(terms):len(terms)], l.Atom.Args...)
			}
		}
		for _, tm := range terms {
			if tm.IsConst() {
				add(tm.Const)
			}
		}
	}
	facts := Facts{}
	holds := func(pred string, tu relation.Tuple) bool {
		_, derived := facts[pred][tu.Key()]
		return derived || db.Contains(pred, tu)
	}
	env := map[string]ast.Value{}
	val := func(tm ast.Term) ast.Value {
		if tm.IsVar() {
			return env[tm.Var]
		}
		return tm.Const
	}
	ground := func(a ast.Atom) relation.Tuple {
		tu := make(relation.Tuple, len(a.Args))
		for i, tm := range a.Args {
			tu[i] = val(tm)
		}
		return tu
	}
	// fire derives r's head under env when every body literal holds.
	fire := func(r *ast.Rule) bool {
		for _, l := range r.Body {
			if l.IsComp() && !l.Comp.Op.Eval(val(l.Comp.Left), val(l.Comp.Right)) ||
				!l.IsComp() && holds(l.Atom.Pred, ground(l.Atom)) == l.IsNeg() {
				return false
			}
		}
		tu := ground(r.Head)
		if holds(r.Head.Pred, tu) {
			return false
		}
		if facts[r.Head.Pred] == nil {
			facts[r.Head.Pred] = map[string]relation.Tuple{}
		}
		facts[r.Head.Pred][tu.Key()] = tu
		return true
	}
	for _, layer := range strata {
		for changed := true; changed; {
			changed = false
			for _, r := range prog.Rules {
				if !layer[r.Head.Pred] {
					continue
				}
				vars := r.Vars()
				var rec func(i int)
				rec = func(i int) {
					if i == len(vars) {
						changed = fire(r) || changed
						return
					}
					for _, v := range adom {
						env[vars[i]] = v
						rec(i + 1)
					}
				}
				rec(0)
			}
		}
	}
	return facts, nil
}

// Holds reports whether prog derives some pred fact over db.
func Holds(prog *ast.Program, db *store.Store, pred string) (bool, error) {
	facts, err := Eval(prog, db)
	return len(facts[pred]) > 0, err
}

// stratify levels the derived predicates by relaxation — a head sits at
// least as high as every derived predicate its rules read, and higher
// than every one they read negated — and returns the levels bottom-up.
// A level past the number of predicates means a cycle through negation.
func stratify(prog *ast.Program) ([]map[string]bool, error) {
	idb := prog.IDBPreds()
	level := map[string]int{}
	top := 0
	for changed := true; changed; {
		changed = false
		for _, r := range prog.Rules {
			for _, l := range r.Body {
				if l.IsComp() || !idb[l.Atom.Pred] {
					continue
				}
				need := level[l.Atom.Pred]
				if l.IsNeg() {
					need++
				}
				if need > len(idb) {
					return nil, fmt.Errorf("naive: %s depends negatively on itself", r.Head.Pred)
				}
				if level[r.Head.Pred] < need {
					level[r.Head.Pred], changed, top = need, true, max(top, need)
				}
			}
		}
	}
	out := make([]map[string]bool, top+1)
	for i := range out {
		out[i] = map[string]bool{}
	}
	for p := range idb {
		out[level[p]][p] = true
	}
	return out, nil
}
