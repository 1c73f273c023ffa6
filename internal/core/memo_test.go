package core

import (
	"fmt"
	"math/big"
	"testing"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/store"
)

// TestPhase2KeySeparatesValues: the phase-2 memo key renders no value
// through fmt and interns none, yet keeps apart what must not share a
// verdict — a number and the string of its digits, tuples of different
// arities, values at different positions — and lets equal rationals in
// any form share one.
func TestPhase2KeySeparatesValues(t *testing.T) {
	half := ast.Value{Kind: ast.NumberValue, Num: big.NewRat(1, 2)}
	twoQuarters := ast.Value{Kind: ast.NumberValue, Num: big.NewRat(2, 4)}
	huge := ast.Value{Kind: ast.NumberValue, Num: new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 70))}
	for _, e := range []*cacheEntry{{allRelevant: true}, {relevant: []bool{true, false, true}}} {
		key := func(vals ...ast.Value) string { return string(e.appendProjKey(nil, relation.Tuple(vals))) }
		distinct := [][]ast.Value{
			{ast.Int(1), ast.Int(0), ast.Int(0)},
			{ast.Str("1"), ast.Int(0), ast.Int(0)},
			{ast.Str("1|"), ast.Int(0), ast.Int(0)},
			{ast.Int(1), ast.Int(0)},
			{ast.Int(1), ast.Int(0), ast.Int(0), ast.Int(0)},
			{ast.Int(0), ast.Int(0), ast.Int(1)},
			{half, ast.Int(0), ast.Int(0)},
			{huge, ast.Int(0), ast.Int(0)},
			{ast.Str(huge.Num.RatString()), ast.Int(0), ast.Int(0)},
		}
		seen := map[string]int{}
		for i, vals := range distinct {
			k := key(vals...)
			if j, dup := seen[k]; dup {
				t.Errorf("allRelevant=%v: %v and %v share key %q", e.allRelevant, distinct[j], vals, k)
			}
			seen[k] = i
		}
		if a, b := key(half, ast.Int(0), ast.Int(0)), key(twoQuarters, ast.Int(0), ast.Int(0)); a != b {
			t.Errorf("allRelevant=%v: 1/2 keys %q, 2/4 %q", e.allRelevant, a, b)
		}
	}
	// A projection drops the irrelevant position: tuples that differ only
	// there share their key.
	e := &cacheEntry{relevant: []bool{true, false}}
	if a, b := e.appendProjKey(nil, relation.Ints(1, 2)), e.appendProjKey(nil, relation.Ints(1, 3)); string(a) != string(b) {
		t.Errorf("an irrelevant position moved the key: %q vs %q", a, b)
	}
	before := relation.InternSize()
	e.appendProjKey(nil, relation.Strs("never-interned-phase2-key", "x"))
	(&cacheEntry{allRelevant: true}).appendProjKey(nil, relation.Strs("never-interned-phase2-key", "y"))
	if n := relation.InternSize() - before; n != 0 {
		t.Errorf("rendering a key interned %d values", n)
	}
}

// TestCheckInternsOnlyProbedConstants: a decision interns a value of the
// update only where a plan probes with it, binds it or emits it. Hiring
// a thousand employees under fresh names and at fresh salaries on the
// flat constraints interns nothing: the name is read by no residual, the
// department is probed but stored already, and the salary only compared.
func TestCheckInternsOnlyProbedConstants(t *testing.T) {
	c := flatChecker(t, Options{})
	// A first check warms what any check interns: the department.
	if rep, err := c.Check(store.Ins("emp", empTuple("warm", "dept01", 25))); err != nil || !rep.Applied {
		t.Fatalf("%+v %v", rep, err)
	}
	before := relation.InternSize()
	for i := 0; i < 1000; i++ {
		sal := ast.Rat(25*1001+int64(i), 1001) // in [25, 26)
		hire := store.Ins("emp", relation.TupleOf(ast.Str(fmt.Sprintf("parity-hire-%d", i)), ast.Str("dept01"), sal))
		if rep, err := c.Check(hire); err != nil || !rep.Applied {
			t.Fatalf("%v: %+v %v", hire, rep, err)
		}
	}
	if n := relation.InternSize() - before; n != 0 {
		t.Errorf("1000 checks of fresh names and salaries interned %d values, want none", n)
	}
}
