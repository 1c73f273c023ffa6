package core

import (
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/store"
)

func TestFootprintsFollowConstraintSet(t *testing.T) {
	db := store.New()
	c := New(db, Options{})
	if err := c.AddConstraintSource("fi", `panic :- l(X, Y) & r(Z) & X <= Z & Z <= Y.`); err != nil {
		t.Fatal(err)
	}
	ix := c.Footprints()
	f := ix.Update(store.Ins("l", relation.Ints(1, 5)))
	if !reflect.DeepEqual(f.Reads, []sched.Read{{Relation: "r"}}) {
		t.Fatalf("residual-eligible insert reads = %v, want [r]", f.Reads)
	}

	// Adding a constraint must invalidate the memoized index: the new
	// index sees the wider read set.
	if err := c.AddConstraintSource("excl", `panic :- l(X, Y) & s(X).`); err != nil {
		t.Fatal(err)
	}
	ix2 := c.Footprints()
	if ix2 == ix {
		t.Fatal("Footprints index not invalidated by AddConstraint")
	}
	f2 := ix2.Update(store.Ins("l", relation.Ints(1, 5)))
	// s is probed with the new tuple's X: one key group of it.
	want := []sched.Read{{Relation: "r"}, {Relation: "s", Keyed: true, Col: 0, Key: relation.Intern(ast.Int(1))}}
	if !reflect.DeepEqual(f2.Reads, want) {
		t.Fatalf("reads after new constraint = %v, want [r s[0=1]]", f2.Reads)
	}
}
