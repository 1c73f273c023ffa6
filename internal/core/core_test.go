package core

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
)

func newChecker(t *testing.T, facts string, opts Options) *Checker {
	t.Helper()
	db := store.New()
	if facts != "" {
		if err := db.LoadFacts(parser.MustParseProgram(facts)); err != nil {
			t.Fatal(err)
		}
	}
	return New(db, opts)
}

func TestAddConstraintValidation(t *testing.T) {
	c := newChecker(t, "emp(ann,ghost,50).", Options{})
	if err := c.AddConstraintSource("notc", "q(X) :- p(X)."); err == nil {
		t.Error("non-constraint accepted")
	}
	// A constraint the database already violates must be rejected.
	if err := c.AddConstraintSource("ri", "panic :- emp(E,D,S) & not dept(D)."); err == nil {
		t.Error("already-violated constraint accepted")
	}
	c2 := newChecker(t, "emp(ann,toy,50). dept(toy).", Options{})
	if err := c2.AddConstraintSource("ri", "panic :- emp(E,D,S) & not dept(D)."); err != nil {
		t.Errorf("valid constraint rejected: %v", err)
	}
	if err := c2.AddConstraintSource("ri", "panic :- emp(E,D,S) & S > 100."); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestApplyPhases(t *testing.T) {
	// Phase-distribution assertions: residual dispatch would otherwise
	// decide every eligible pattern ahead of the staged pipeline.
	c := newChecker(t, "emp(ann,toy,50). dept(toy).", Options{DisableResidual: true})
	for name, src := range map[string]string{
		"ri":  "panic :- emp(E,D,S) & not dept(D).",
		"cap": "panic :- emp(E,D,S) & S > 100.",
	} {
		if err := c.AddConstraintSource(name, src); err != nil {
			t.Fatal(err)
		}
	}
	// Inserting a department: ri certified update-only, cap unaffected.
	rep, err := c.Apply(store.Ins("dept", relation.Strs("shoe")))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Applied {
		t.Fatal("benign update rejected")
	}
	phases := map[string]Phase{}
	for _, d := range rep.Decisions {
		phases[d.Constraint] = d.Phase
	}
	if phases["cap"] != PhaseUnaffected {
		t.Errorf("cap decided by %v, want unaffected", phases["cap"])
	}
	// Inserting into dept — a purely negative relation for ri — is now
	// certified by the polarity phase, cheaper than rewrite+subsumption.
	if phases["ri"] != PhasePolarity {
		t.Errorf("ri decided by %v, want polarity", phases["ri"])
	}
	// Inserting a low-paid employee in an existing dept: cap certified
	// update-only; ri needs the data (global here, since dept is not a
	// designated local CQC relation for ri's shape — ri has negation).
	rep, err = c.Apply(store.Ins("emp", relation.TupleOf(ast.Str("bob"), ast.Str("toy"), ast.Int(60))))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Applied {
		t.Fatal("valid employee rejected")
	}
	// Inserting an employee of a ghost department must be rejected and
	// rolled back.
	rep, err = c.Apply(store.Ins("emp", relation.TupleOf(ast.Str("eve"), ast.Str("ghost"), ast.Int(60))))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied {
		t.Fatal("violating update applied")
	}
	if got := rep.Violations(); len(got) != 1 || got[0] != "ri" {
		t.Errorf("Violations = %v", got)
	}
	if c.DB().Contains("emp", relation.TupleOf(ast.Str("eve"), ast.Str("ghost"), ast.Int(60))) {
		t.Error("rolled-back tuple still present")
	}
	if bad := c.CheckAll(); len(bad) != 0 {
		t.Errorf("CheckAll after rollback: %v", bad)
	}
}

func TestApplyLocalDataPhase(t *testing.T) {
	// Forbidden intervals with l local and r remote: covered insertions
	// are certified from local data without touching r.
	db := store.New()
	for _, tu := range []relation.Tuple{relation.Ints(3, 6), relation.Ints(5, 10)} {
		if _, err := db.Insert("l", tu); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Insert("r", relation.Ints(100)); err != nil {
		t.Fatal(err)
	}
	c := New(db, Options{LocalRelations: []string{"l"}, DisableResidual: true})
	if err := c.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
		t.Fatal(err)
	}
	db.ResetReads()
	rep, err := c.Apply(store.Ins("l", relation.Ints(4, 8)))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Applied {
		t.Fatal("covered insertion rejected")
	}
	if rep.Decisions[0].Phase != PhaseLocalData {
		t.Errorf("phase = %v, want local-data", rep.Decisions[0].Phase)
	}
	if got := db.Reads("r"); got != 0 {
		t.Errorf("local-data phase read %d remote tuples", got)
	}
	// An uncovered insertion that would violate (r holds 100): global
	// phase catches it.
	rep, err = c.Apply(store.Ins("l", relation.Ints(90, 110)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied {
		t.Fatal("violating interval applied")
	}
	if rep.Decisions[0].Phase != PhaseGlobal {
		t.Errorf("phase = %v, want global", rep.Decisions[0].Phase)
	}
	// An uncovered insertion that happens not to violate (no remote point
	// in it): global phase admits it.
	rep, err = c.Apply(store.Ins("l", relation.Ints(40, 50)))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Applied {
		t.Fatal("harmless uncovered interval rejected")
	}
}

func TestApplyDeleteRollbackRestores(t *testing.T) {
	// Deleting a department can violate referential integrity; the
	// rollback must restore the deleted tuple.
	c := newChecker(t, "emp(ann,toy,50). dept(toy).", Options{})
	if err := c.AddConstraintSource("ri", "panic :- emp(E,D,S) & not dept(D)."); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Apply(store.Del("dept", relation.Strs("toy")))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied {
		t.Fatal("violating deletion applied")
	}
	if !c.DB().Contains("dept", relation.Strs("toy")) {
		t.Error("rollback did not restore the deleted tuple")
	}
}

func TestApplyNoChangeUpdateNotCorrupted(t *testing.T) {
	// Re-inserting an existing tuple that leads to a violation must not
	// delete the pre-existing tuple on rollback.
	db := store.New()
	if _, err := db.Insert("l", relation.Ints(1, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("r", relation.Ints(3)); err != nil {
		t.Fatal(err)
	}
	c := New(db, Options{LocalRelations: []string{"l"}})
	// The database violates fi already — AddConstraint refuses. Use an
	// empty-constraint setup instead: constraint over s, then force a
	// duplicate insert.
	if err := c.AddConstraintSource("dup", "panic :- l(X,Y) & s(X) & X > 100."); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Apply(store.Ins("l", relation.Ints(1, 5)))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Applied {
		t.Fatal("benign duplicate insert rejected")
	}
	if !c.DB().Contains("l", relation.Ints(1, 5)) {
		t.Error("duplicate insert corrupted the store")
	}
}

func TestStatsAccumulate(t *testing.T) {
	c := newChecker(t, "dept(toy).", Options{DisableResidual: true})
	if err := c.AddConstraintSource("cap", "panic :- emp(E,D,S) & S > 100."); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.Apply(store.Ins("dept", relation.Strs("d"+string(rune('a'+i))))); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Updates != 5 || st.ByPhase[PhaseUnaffected] != 5 {
		t.Errorf("stats = %+v", st)
	}
}

// TestPipelineAgainstOracle drives randomized updates through the full
// pipeline and checks its accept/reject decisions against the oracle
// (direct evaluation), and that the store always satisfies every
// constraint.
func TestPipelineAgainstOracle(t *testing.T) {
	db := store.New()
	if _, err := db.Insert("dept", relation.Strs("toy")); err != nil {
		t.Fatal(err)
	}
	c := New(db, Options{LocalRelations: []string{"emp", "dept"}})
	for name, src := range map[string]string{
		"ri":       "panic :- emp(E,D,S) & not dept(D).",
		"cap":      "panic :- emp(E,D,S) & S > 100.",
		"disjoint": "panic :- emp(E,sales,S) & emp(E,accounting,S).",
	} {
		if err := c.AddConstraintSource(name, src); err != nil {
			t.Fatal(err)
		}
	}
	rng := rand.New(rand.NewSource(31))
	names := []string{"ann", "bob", "carl"}
	depts := []string{"toy", "shoe", "sales", "accounting"}
	for i := 0; i < 120; i++ {
		var u store.Update
		switch rng.Intn(3) {
		case 0:
			u = store.Ins("emp", relation.TupleOf(
				ast.Str(names[rng.Intn(len(names))]),
				ast.Str(depts[rng.Intn(len(depts))]),
				ast.Int(int64(rng.Intn(150)))))
		case 1:
			u = store.Ins("dept", relation.Strs(depts[rng.Intn(len(depts))]))
		default:
			u = store.Del("dept", relation.Strs(depts[rng.Intn(len(depts))]))
		}
		rep, err := c.Apply(u)
		if err != nil {
			t.Fatalf("update %v: %v", u, err)
		}
		if bad := c.CheckAll(); len(bad) != 0 {
			t.Fatalf("after update %v (applied=%v): violated %v", u, rep.Applied, bad)
		}
	}
}

func TestRedundantConstraints(t *testing.T) {
	c := newChecker(t, "", Options{})
	for name, src := range map[string]string{
		"mid":   "panic :- r(Z) & 4 <= Z & Z <= 8.",
		"left":  "panic :- r(Z) & 3 <= Z & Z <= 6.",
		"right": "panic :- r(Z) & 5 <= Z & Z <= 10.",
	} {
		if err := c.AddConstraintSource(name, src); err != nil {
			t.Fatal(err)
		}
	}
	red, err := c.RedundantConstraints()
	if err != nil {
		t.Fatal(err)
	}
	if len(red) != 1 || red[0] != "mid" {
		t.Errorf("RedundantConstraints = %v, want [mid]", red)
	}
	if !c.RemoveConstraint("mid") {
		t.Error("RemoveConstraint failed")
	}
	if c.RemoveConstraint("mid") {
		t.Error("double remove succeeded")
	}
	if got := c.Constraints(); len(got) != 2 {
		t.Errorf("constraints after removal: %v", got)
	}
}

// TestKeptFixpointMatchesRecompute drives the same random stream
// through a default checker — global insert decisions by delta rounds on
// kept fixpoints — and the scan arm, which evaluates every global
// decision from scratch; every decision and the final state must agree,
// and what the default checker keeps must equal a fresh evaluation.
func TestKeptFixpointMatchesRecompute(t *testing.T) {
	mk := func(reference bool) *Checker {
		db := store.New()
		if _, err := db.Insert("dept", relation.Strs("toy")); err != nil {
			t.Fatal(err)
		}
		c := New(db, Options{DisableIndexes: reference})
		for _, k := range []struct{ name, src string }{
			{"ri", "panic :- emp(E,D,S) & not dept(D)."},
			{"cap", "panic :- emp(E,D,S) & S > 100."},
			{"boss", "panic :- boss(E,E).\nboss(E,M) :- emp(E,D,S) & manager(D,M).\nboss(E,F) :- boss(E,G) & boss(G,F)."},
		} {
			if err := c.AddConstraintSource(k.name, k.src); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	a, b := mk(false), mk(true)
	rng := rand.New(rand.NewSource(77))
	names := []string{"ann", "bob", "carl"}
	depts := []string{"toy", "shoe"}
	for step := 0; step < 80; step++ {
		var u store.Update
		switch rng.Intn(4) {
		case 0:
			u = store.Ins("dept", relation.Strs(depts[rng.Intn(2)]))
		case 1:
			u = store.Ins("manager", relation.TupleOf(
				ast.Str(depts[rng.Intn(2)]), ast.Str(names[rng.Intn(3)])))
		case 2:
			u = store.Del("manager", relation.TupleOf(
				ast.Str(depts[rng.Intn(2)]), ast.Str(names[rng.Intn(3)])))
		default:
			u = store.Ins("emp", relation.TupleOf(
				ast.Str(names[rng.Intn(3)]), ast.Str(depts[rng.Intn(2)]), ast.Int(int64(rng.Intn(150)))))
		}
		ra, err := a.Apply(u)
		if err != nil {
			t.Fatalf("default step %d: %v", step, err)
		}
		rb, err := b.Apply(u)
		if err != nil {
			t.Fatalf("reference step %d: %v", step, err)
		}
		if !reflect.DeepEqual(ra.Decisions, rb.Decisions) || ra.Applied != rb.Applied {
			t.Fatalf("step %d (%v): default %+v, reference %+v", step, u, ra, rb)
		}
		if badA := a.CheckAll(); len(badA) != 0 {
			t.Fatalf("step %d: default checker left violations %v", step, badA)
		}
		checkKept(t, a)
	}
	if s := a.Stats(); s.FixpointHits == 0 || s.FixpointRebuilds == 0 {
		t.Errorf("the stream never used a kept fixpoint: %+v", s)
	}
	if s := b.Stats(); s.FixpointHits+s.FixpointRebuilds != 0 {
		t.Errorf("the scan arm kept a fixpoint: %+v", s)
	}
	// Final stores identical.
	for _, rel := range a.DB().Names() {
		ra, rb := a.DB().Relation(rel), b.DB().Relation(rel)
		if rb == nil || !ra.Equal(rb) {
			t.Errorf("relation %s diverged", rel)
		}
	}
}
