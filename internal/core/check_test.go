package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/store"
)

func TestCheckLeavesStoreUntouched(t *testing.T) {
	c := newChecker(t, "dept(toy).", Options{})
	if err := c.AddConstraintSource("ri", "panic :- emp(E,D) & not dept(D)."); err != nil {
		t.Fatal(err)
	}
	before := c.DB().Dump()

	// Admitted insert: decided yes, not kept.
	rep, err := c.Check(store.Ins("emp", relation.Strs("ann", "toy")))
	if err != nil || !rep.Applied {
		t.Fatalf("safe check: applied=%v err=%v", rep.Applied, err)
	}
	// Rejected insert: decided no.
	rep, err = c.Check(store.Ins("emp", relation.Strs("eve", "ghost")))
	if err != nil || rep.Applied {
		t.Fatalf("violating check: applied=%v err=%v", rep.Applied, err)
	}
	if vs := rep.Violations(); len(vs) != 1 || vs[0] != "ri" {
		t.Fatalf("violations = %v", vs)
	}
	// Delete of an existing tuple: asked about, not made.
	rep, err = c.Check(store.Del("dept", relation.Strs("toy")))
	if err != nil || !rep.Applied {
		t.Fatalf("delete check: applied=%v err=%v", rep.Applied, err)
	}
	// No-op shapes: a duplicate insert must not cost the pre-existing tuple
	// and an absent delete must not invent one.
	if rep, err = c.Check(store.Ins("dept", relation.Strs("toy"))); err != nil || !rep.Applied {
		t.Fatalf("duplicate-insert check: applied=%v err=%v", rep.Applied, err)
	}
	if rep, err = c.Check(store.Del("emp", relation.Strs("nobody", "toy"))); err != nil || !rep.Applied {
		t.Fatalf("absent-delete check: applied=%v err=%v", rep.Applied, err)
	}

	if after := c.DB().Dump(); after != before {
		t.Fatalf("Check mutated the store:\n--- before ---\n%s--- after ---\n%s", before, after)
	}
}

func TestCheckThenApplyAgree(t *testing.T) {
	c := newChecker(t, "l(0,10).", Options{LocalRelations: []string{"l"}})
	if err := c.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
		t.Fatal(err)
	}
	for _, u := range []store.Update{
		store.Ins("r", relation.Ints(100)),
		store.Ins("r", relation.Ints(5)),
		store.Del("r", relation.Ints(100)),
		store.Ins("l", relation.Ints(90, 110)),
	} {
		chk, err := c.Check(u)
		if err != nil {
			t.Fatalf("check %v: %v", u, err)
		}
		app, err := c.Apply(u)
		if err != nil {
			t.Fatalf("apply %v: %v", u, err)
		}
		if chk.Applied != app.Applied {
			t.Fatalf("%v: check said %v, apply said %v", u, chk.Applied, app.Applied)
		}
		if len(chk.Violations()) != len(app.Violations()) {
			t.Fatalf("%v: check violations %v, apply violations %v", u, chk.Violations(), app.Violations())
		}
	}
	// After checks + applies interleaved, only the applies show: +r(95)
	// lands inside the applied l(90,110), so it must be rejected, proving
	// the interval survived the earlier checks.
	rep, err := c.Apply(store.Ins("r", relation.Ints(95)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied {
		t.Fatal("expected +r(95) to be rejected")
	}
}

func TestCheckCountsInStats(t *testing.T) {
	c := newChecker(t, "dept(toy).", Options{})
	if err := c.AddConstraintSource("ri", "panic :- emp(E,D) & not dept(D)."); err != nil {
		t.Fatal(err)
	}
	c.ResetStats()
	if _, err := c.Check(store.Ins("emp", relation.Strs("ann", "toy"))); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Updates != 1 {
		t.Fatalf("stats updates = %d, want 1", st.Updates)
	}
}

// storeState renders everything about a store a decision that admits
// nothing must leave alone: relation names, and the data version and
// contents of every relation.
func storeState(db *store.Store) string {
	var sb strings.Builder
	for _, name := range db.Names() {
		fmt.Fprintf(&sb, "%s v%d\n", name, db.DataVersion(name))
	}
	return sb.String() + sortedLines(db.Dump()) + "\n"
}

// A decision that admits nothing writes nothing: after a Check, and after
// a rejected Apply, the store is what it was — names, data versions,
// contents — and no decision compiles a residual.
func TestDecisionThatAdmitsNothingWritesNothing(t *testing.T) {
	for _, opts := range []Options{{}, {DisableResidual: true}, {DisableResidual: true, DisableIndexes: true}} {
		c := newChecker(t, "dept(toy). emp(ann,toy). edge(1,2). edge(2,3).", opts)
		for name, src := range map[string]string{
			"ri":      "panic :- emp(E,D) & not dept(D).",
			"ghostly": "panic :- ghost(X) & dept(X).",
			"acyclic": "reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- reach(X,Z) & edge(Z,Y).\npanic :- reach(X,X).",
		} {
			if err := c.AddConstraintSource(name, src); err != nil {
				t.Fatal(err)
			}
		}
		for _, tc := range []struct {
			what   string
			u      store.Update
			apply  bool // a rejected Apply instead of a Check
			admits bool
		}{
			{"relation the store lacks", store.Ins("ghost", relation.Strs("boo")), false, true},
			{"relation the store lacks, rejected", store.Ins("ghost", relation.Strs("toy")), true, false},
			{"relation no constraint mentions", store.Ins("nowhere", relation.Ints(1, 2, 3)), false, true},
			{"duplicate insert", store.Ins("dept", relation.Strs("toy")), false, true},
			{"absent delete", store.Del("emp", relation.Strs("nobody", "toy")), false, true},
			{"delete from a relation the store lacks", store.Del("ghost", relation.Strs("boo")), false, true},
			{"polarity-decided delete", store.Del("emp", relation.Strs("ann", "toy")), false, true},
			{"admitted insert", store.Ins("emp", relation.Strs("bob", "toy")), false, true},
			{"rejected insert", store.Ins("emp", relation.Strs("eve", "ghost")), false, false},
			{"rejected insert, applied", store.Ins("emp", relation.Strs("eve", "ghost")), true, false},
			{"rejected delete, applied", store.Del("dept", relation.Strs("toy")), true, false},
			{"rejected global insert, applied", store.Ins("edge", relation.Ints(3, 1)), true, false},
			{"admitted global insert", store.Ins("edge", relation.Ints(1, 3)), false, true},
		} {
			// Warm the pattern, so that what moves below is this decision's.
			if _, err := c.Check(tc.u); err != nil {
				t.Fatalf("%s: %v", tc.what, err)
			}
			before, compiled := storeState(c.DB()), c.Stats().ResidualCompiled
			decide := c.Check
			if tc.apply {
				decide = c.Apply
			}
			rep, err := decide(tc.u)
			if err != nil || rep.Applied != tc.admits {
				t.Fatalf("%+v %s: applied=%v err=%v, want %v", opts, tc.what, rep.Applied, err, tc.admits)
			}
			if _, err := c.Check(tc.u); err != nil {
				t.Fatal(err)
			}
			if after := storeState(c.DB()); after != before {
				t.Errorf("%+v %s: the decision moved the store\n--- before ---\n%s--- after ---\n%s", opts, tc.what, before, after)
			}
			if got := c.Stats().ResidualCompiled; got != compiled {
				t.Errorf("%+v %s: %d residual compilations after a decision that wrote nothing", opts, tc.what, got-compiled)
			}
		}
		// An insert the stored relation cannot take is refused with the
		// store's own error, and nothing is evaluated or created.
		before, decisions := storeState(c.DB()), c.Stats().Decisions
		_, want := c.DB().Clone().Insert("dept", relation.Strs("toy", "story"))
		for _, decide := range []func(store.Update) (Report, error){c.Check, c.Apply} {
			if _, err := decide(store.Ins("dept", relation.Strs("toy", "story"))); err == nil || err.Error() != want.Error() {
				t.Errorf("arity conflict: err=%v, want %v", err, want)
			}
		}
		if after := storeState(c.DB()); after != before || c.Stats().Decisions != decisions {
			t.Errorf("a refused insert moved the store or was decided:\n%s\n%s", before, after)
		}
	}
}
