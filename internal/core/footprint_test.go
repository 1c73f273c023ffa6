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

// TestCertificateClaimsNothing: a local certificate reads the updated
// relation itself, and the update's footprint does not say so — with
// emp local and a certificate compiled, an emp insert claims the dept key
// group it claimed before and nothing of emp. It does not have to: the
// verdict needs a witness to have been there with the rest of the rule's
// relations as they are, which the claims on those keep; the decision
// keeps the witness its plan found (Decide); and a claim on emp's key
// group would park every insert behind the inserts, deletes and batches
// of its department (measured on dist_sharded: 27 % of tasks stalled,
// against 0.05 % without — DESIGN.md, "Local certificates").
func TestCertificateClaimsNothing(t *testing.T) {
	for _, opts := range []Options{{}, {LocalRelations: []string{"emp"}}} {
		c := newChecker(t, "dept(toy). emp(ann,toy).", opts)
		if err := c.AddConstraintSource("ri", "panic :- emp(E,D) & not dept(D)."); err != nil {
			t.Fatal(err)
		}
		f := c.Footprints().Update(hire("bob", "toy"))
		want := []sched.Read{{Relation: "dept", Keyed: true, Col: 0, Key: relation.Intern(ast.Str("toy"))}}
		if !reflect.DeepEqual(f.Reads, want) {
			t.Errorf("local=%v: reads = %v, want the dept key group only", opts.LocalRelations, f.Reads)
		}
	}
}
