package core

import (
	"reflect"
	"testing"

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
	if !reflect.DeepEqual(f.Reads, []sched.Read{{Relation: "r", Shard: sched.WholeRelation}}) {
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
	if !reflect.DeepEqual(f2.Reads, []sched.Read{{Relation: "r", Shard: sched.WholeRelation}, {Relation: "s", Shard: sched.WholeRelation}}) {
		t.Fatalf("reads after new constraint = %v, want [r s]", f2.Reads)
	}
}
