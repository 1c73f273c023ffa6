package core

import (
	"fmt"
	"testing"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/store"
)

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
