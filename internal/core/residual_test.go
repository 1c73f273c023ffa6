package core

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// residualPair builds two checkers over identical stores and constraint
// sets: one with residual dispatch (the default), one forced onto the
// staged pipeline.
func residualPair(t *testing.T, seed int64) (res, pipe *Checker) {
	t.Helper()
	mk := func(disable bool) *Checker {
		rng := rand.New(rand.NewSource(seed))
		db := store.New()
		if err := workload.EmployeeDB(rng, db, 4, 25); err != nil {
			t.Fatal(err)
		}
		c := New(db, Options{LocalRelations: []string{"emp", "dept"}, DisableResidual: disable})
		for name, src := range workload.StandardEmployeeConstraints() {
			if err := c.AddConstraintSource(name, src); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	return mk(false), mk(true)
}

// TestResidualMatchesPipeline drives the same randomized employee stream
// through residual dispatch and the staged pipeline; every verdict and
// the final stores must agree — the A/B contract of ccheck -noresidual.
func TestResidualMatchesPipeline(t *testing.T) {
	for _, seed := range []int64{3, 19, 57} {
		res, pipe := residualPair(t, seed)
		rng := rand.New(rand.NewSource(seed + 100))
		residualDecisions := 0
		for _, u := range workload.EmployeeUpdates(rng, 120, 4, 0.25) {
			ra, err := res.Apply(u)
			if err != nil {
				t.Fatalf("seed %d, residual arm %v: %v", seed, u, err)
			}
			rb, err := pipe.Apply(u)
			if err != nil {
				t.Fatalf("seed %d, pipeline arm %v: %v", seed, u, err)
			}
			if ra.Applied != rb.Applied {
				t.Fatalf("seed %d %v: residual applied=%v pipeline=%v", seed, u, ra.Applied, rb.Applied)
			}
			va, vb := ra.Violations(), rb.Violations()
			if len(va) != len(vb) {
				t.Fatalf("seed %d %v: violations %v vs %v", seed, u, va, vb)
			}
			for i := range va {
				if va[i] != vb[i] {
					t.Fatalf("seed %d %v: violations %v vs %v", seed, u, va, vb)
				}
			}
			for _, d := range ra.Decisions {
				if d.Phase == PhaseResidual {
					residualDecisions++
				}
			}
		}
		if residualDecisions == 0 {
			t.Errorf("seed %d: residual dispatch never engaged", seed)
		}
		if rs, ps := res.Stats(), pipe.Stats(); rs.ByPhase[PhaseResidual] == 0 || ps.ByPhase[PhaseResidual] != 0 {
			t.Errorf("seed %d: phase mix wrong: residual arm %v, pipeline arm %v", seed, rs.ByPhase, ps.ByPhase)
		}
		for _, rel := range res.DB().Names() {
			ra, rb := res.DB().Relation(rel), pipe.DB().Relation(rel)
			if rb == nil || !ra.Equal(rb) {
				t.Errorf("seed %d: relation %s diverged", seed, rel)
			}
		}
	}
}

// TestResidualStatsAndInvalidate pins the counter plumbing: a constraint
// set's checks are compiled when it changes and nowhere else, every
// decision of a pattern is served its check, and ResetStats zeroes every
// counter family.
func TestResidualStatsAndInvalidate(t *testing.T) {
	c := newChecker(t, "dept(toy).", Options{})
	if err := c.AddConstraintSource("cap", "panic :- emp(E,D,S) & S > 100."); err != nil {
		t.Fatal(err)
	}
	// One check: +emp (a delete from emp is monotone-safe).
	if st := c.Stats(); st.ResidualCompiled != 1 || st.ResidualHits != 0 {
		t.Errorf("after AddConstraint: %+v, want compiled=1 hits=0", st)
	}
	for i := int64(0); i < 6; i++ {
		if rep, err := c.Apply(store.Ins("emp", relation.TupleOf(ast.Str("e"), ast.Str("toy"), ast.Int(i)))); err != nil || !rep.Applied {
			t.Fatalf("benign insert %d: %+v %v", i, rep, err)
		}
	}
	st := c.Stats()
	if st.ByPhase[PhaseResidual] != 6 {
		t.Fatalf("phase mix %v, want 6 residual decisions", st.ByPhase)
	}
	if st.ResidualCompiled != 1 || st.ResidualHits != 6 {
		t.Errorf("residual counters %+v, want compiled=1 hits=6", st)
	}
	// AddConstraint compiles the new set's checks, cap's and cap2's; the
	// counters keep the lifetime totals.
	if err := c.AddConstraintSource("cap2", "panic :- emp(E,D,S) & S > 1000."); err != nil {
		t.Fatal(err)
	}
	if st = c.Stats(); st.ResidualCompiled != 3 {
		t.Errorf("after a second AddConstraint: %d checks compiled, want 3", st.ResidualCompiled)
	}
	c.ResetStats()
	st = c.Stats()
	if st.Updates != 0 || st.ResidualHits != 0 || st.ResidualMisses != 0 || st.ResidualCompiled != 0 {
		t.Errorf("ResetStats left %+v", st)
	}
	if st.PlanHits != 0 || st.PlanMisses != 0 || st.CacheHits != 0 || st.CacheMisses != 0 {
		t.Errorf("ResetStats left cache counters %+v", st)
	}
}

// TestResidualRejectsAndRollsBack: a violating update caught by the
// residual phase must roll back exactly like a global-phase rejection.
func TestResidualRejectsAndRollsBack(t *testing.T) {
	c := newChecker(t, "emp(ann,toy,50). dept(toy).", Options{})
	for name, src := range map[string]string{
		"ri":  "panic :- emp(E,D,S) & not dept(D).",
		"cap": "panic :- emp(E,D,S) & S > 100.",
	} {
		if err := c.AddConstraintSource(name, src); err != nil {
			t.Fatal(err)
		}
	}
	over := relation.TupleOf(ast.Str("eve"), ast.Str("toy"), ast.Int(900))
	rep, err := c.Apply(store.Ins("emp", over))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied {
		t.Fatal("violating update applied")
	}
	if got := rep.Violations(); len(got) != 1 || got[0] != "cap" {
		t.Fatalf("violations = %v", got)
	}
	for _, d := range rep.Decisions {
		if d.Constraint == "cap" && d.Phase != PhaseResidual {
			t.Errorf("cap decided by %v, want residual", d.Phase)
		}
	}
	if c.DB().Contains("emp", over) {
		t.Error("rolled-back tuple still present")
	}
	if bad, _ := c.CheckAll(); len(bad) != 0 {
		t.Errorf("CheckAll after rollback: %v", bad)
	}
}
