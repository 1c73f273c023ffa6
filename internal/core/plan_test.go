package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/store"
)

func planChecker(t *testing.T) *Checker {
	t.Helper()
	// Apart from the local certificates, Plan previews the staged pipeline,
	// so these tests compare it against an Apply that runs the same pipeline.
	return planCheckerWith(t, Options{LocalRelations: []string{"emp"}, DisableResidual: true})
}

func planCheckerWith(t *testing.T, opts Options) *Checker {
	t.Helper()
	c := newChecker(t, "dept(toy). emp(ann,toy,50).", opts)
	if err := c.AddConstraintSource("ri", "panic :- emp(E,D,S) & not dept(D)."); err != nil {
		t.Fatal(err)
	}
	if err := c.AddConstraintSource("cap", "panic :- emp(E,D,S) & S > 100."); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPlanDecidedWithoutGlobal(t *testing.T) {
	c := planChecker(t)
	// Inserting a department is harmless for both constraints: phases 1–2
	// decide everything, so no relation would be fetched.
	pr := c.Plan(store.Ins("dept", relation.Strs("shoe")))
	if len(pr.Global) != 0 || len(pr.Relations) != 0 {
		t.Fatalf("plan needs global for +dept(shoe): %+v", pr)
	}
	if len(pr.Decided) != 2 {
		t.Fatalf("decided %d constraints, want 2: %+v", len(pr.Decided), pr)
	}
	for _, d := range pr.Decided {
		if d.Verdict != Holds || d.Phase == PhaseGlobal {
			t.Errorf("decision %+v", d)
		}
	}
}

func TestPlanGlobalRelations(t *testing.T) {
	local := []string{"emp"}
	hire := func(dept string) store.Update {
		return store.Ins("emp", relation.TupleOf(ast.Str("bob"), ast.Str(dept), ast.Int(500)))
	}
	// A high-salary hire: the salary cap cannot be certified without
	// evaluation, so emp is always read. The referential constraint needs
	// dept (which is remote) unless a stored employee of the same
	// department proves the department exists.
	for _, c := range []struct {
		name string
		opts Options
		u    store.Update
		want []string
	}{
		{"witness in the department", Options{LocalRelations: local}, hire("toy"), []string{"emp"}},
		{"nobody in the department", Options{LocalRelations: local}, hire("shoe"), []string{"dept", "emp"}},
		{"phase 3 off", Options{LocalRelations: local, DisableLocalData: true}, hire("toy"), []string{"dept", "emp"}},
		{"residual dispatch off", Options{LocalRelations: local, DisableResidual: true}, hire("toy"), []string{"dept", "emp"}},
		{"nothing remote", Options{}, hire("toy"), []string{"dept", "emp"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			chk := planCheckerWith(t, c.opts)
			if c.u.Tuple[1].Equal(ast.Str("shoe")) {
				if _, err := chk.DB().Insert("dept", relation.Strs("shoe")); err != nil {
					t.Fatal(err)
				}
			}
			pr := chk.Plan(c.u)
			if len(pr.Global) == 0 {
				t.Fatalf("expected global constraints: %+v", pr)
			}
			if !reflect.DeepEqual(pr.Relations, c.want) {
				t.Errorf("relations = %v, want %v", pr.Relations, c.want)
			}
			certified := len(c.want) == 1
			for _, d := range pr.Decided {
				if d.Constraint != "ri" || d.Phase != PhaseResidual || !pr.Witness("ri").Equal(relation.TupleOf(ast.Str("ann"), ast.Str("toy"), ast.Int(50))) {
					t.Errorf("decided %+v by %v, want ri certified by emp(ann,toy,50)", d, pr.Witnesses)
				}
			}
			if (len(pr.Decided) == 1) != certified {
				t.Errorf("decided = %+v, certified want %v", pr.Decided, certified)
			}
		})
	}
}

func TestPlanIsReadOnly(t *testing.T) {
	for _, opts := range []Options{
		{LocalRelations: []string{"emp"}, DisableResidual: true},
		{LocalRelations: []string{"emp"}}, // with certificates: a hit and a miss
	} {
		c := planCheckerWith(t, opts)
		for _, dept := range []string{"ghost", "toy"} {
			u := store.Ins("emp", relation.TupleOf(ast.Str("x"), ast.Str(dept), ast.Int(500)))
			c.Plan(u) // compile whatever the pattern compiles
			before := c.Stats()
			dump, version := c.DB().Dump(), c.DB().DataVersion("emp")
			pr := c.Plan(u)
			if len(pr.Global) == 0 {
				t.Fatalf("expected a global plan: %+v", pr)
			}
			if got := c.DB().Dump(); got != dump || c.DB().DataVersion("emp") != version {
				t.Errorf("Plan mutated the store:\n%s", got)
			}
			after := c.Stats()
			if after.Updates != before.Updates || after.Decisions != before.Decisions || after.Rejected != before.Rejected ||
				after.LocalCertified != before.LocalCertified || after.ResidualCompiled != before.ResidualCompiled {
				t.Errorf("Plan moved aggregate stats: before %+v after %+v", before, after)
			}
		}
	}
}

func TestPlanMatchesApply(t *testing.T) {
	c := planChecker(t)
	updates := []store.Update{
		store.Ins("dept", relation.Strs("shoe")),
		store.Ins("emp", relation.TupleOf(ast.Str("bob"), ast.Str("shoe"), ast.Int(60))),
		store.Ins("emp", relation.TupleOf(ast.Str("zed"), ast.Str("toy"), ast.Int(900))),
		store.Del("emp", relation.TupleOf(ast.Str("ann"), ast.Str("toy"), ast.Int(50))),
	}
	for _, u := range updates {
		pr := c.Plan(u)
		rep, err := c.Apply(u)
		if err != nil {
			t.Fatal(err)
		}
		// Every planned early decision appears verbatim in the report, and
		// every planned-global constraint was decided by the global phase.
		byName := map[string]Decision{}
		for _, d := range rep.Decisions {
			byName[d.Constraint] = d
		}
		for _, d := range pr.Decided {
			if got := byName[d.Constraint]; got != d {
				t.Errorf("%v: planned %+v, applied %+v", u, d, got)
			}
		}
		for _, name := range pr.Global {
			if got := byName[name]; got.Phase != PhaseGlobal {
				t.Errorf("%v: planned global for %s, applied %+v", u, name, got)
			}
		}
	}
}

func TestEdbRelationsExcludesDerived(t *testing.T) {
	c := newChecker(t, "mgr(a,b).", Options{})
	src := `boss(E,M) :- mgr(E,M).
boss(E,M) :- mgr(E,X) & boss(X,M).
panic :- boss(E,E).`
	if err := c.AddConstraintSource("cycle", src); err != nil {
		t.Fatal(err)
	}
	pr := c.Plan(store.Ins("mgr", relation.Strs("b", "a")))
	if len(pr.Global) != 1 {
		t.Fatalf("plan = %+v", pr)
	}
	if want := []string{"mgr"}; !reflect.DeepEqual(pr.Relations, want) {
		t.Errorf("relations = %v, want %v (derived boss excluded)", pr.Relations, want)
	}
}

func TestStatsByPhaseIsACopy(t *testing.T) {
	c := planChecker(t)
	if _, err := c.Apply(store.Ins("dept", relation.Strs("shoe"))); err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	for p := range st.ByPhase {
		st.ByPhase[p] += 1000
	}
	st2 := c.Stats()
	for p, n := range st2.ByPhase {
		if n >= 1000 {
			t.Fatalf("Stats leaked the live ByPhase map: %v=%d", p, n)
		}
	}
	_ = fmt.Sprint(st2)
}
