package core

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// TestPlanCacheInvalidatedOnConstraintChange pins where global-phase
// evaluations are compiled: once per constraint, by AddConstraint —
// never by a decision — and every evaluation runs one of them.
func TestPlanCacheInvalidatedOnConstraintChange(t *testing.T) {
	c := newChecker(t, "l(30,60). r(40).",
		Options{DisableUpdateOnly: true, DisableLocalData: true, DisableResidual: true})
	if err := c.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & Y < X."); err != nil {
		t.Fatal(err)
	}
	// The admission check ran the one compiled evaluation.
	if s := c.Stats(); s.PlanMisses != 1 || s.PlanHits != 1 {
		t.Fatalf("after AddConstraint: %+v, want one compiled evaluation, run once", s)
	}
	if _, err := c.Apply(store.Ins("r", relation.Ints(41))); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.PlanMisses != 1 || s.PlanHits < 2 {
		t.Fatalf("after a global-phase Apply: %+v, want it run from the compiled evaluation", s)
	}
	if err := c.AddConstraintSource("fi2", "panic :- r(Z) & Z > 10000."); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Apply(store.Ins("r", relation.Ints(42))); err != nil {
		t.Fatal(err)
	}
	if !c.RemoveConstraint("fi2") {
		t.Fatal("RemoveConstraint(fi2) found nothing")
	}
	if _, err := c.Apply(store.Ins("l", relation.Ints(1, 2))); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.PlanMisses != 2 {
		t.Fatalf("%d evaluations compiled, want one per AddConstraint: 2", s.PlanMisses)
	}
}

// TestPlanCacheDisabled: Options.DisablePlanCache has nothing left to
// disable — the same stream decides alike and counts alike with it.
func TestPlanCacheDisabled(t *testing.T) {
	run := func(disable bool) (string, Stats) {
		c := newChecker(t, "l(30,60). r(40).",
			Options{DisablePlanCache: disable, DisableUpdateOnly: true, DisableLocalData: true, DisableResidual: true})
		if err := c.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & Y < X."); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, u := range []store.Update{store.Ins("r", relation.Ints(41)), store.Ins("l", relation.Ints(9, 3)), store.Del("r", relation.Ints(40))} {
			rep, err := c.Apply(u)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, fmt.Sprint(rep.Applied, rep.Violations()))
		}
		return fmt.Sprint(out), c.Stats()
	}
	on, son := run(false)
	off, soff := run(true)
	if on != off || son.PlanHits != soff.PlanHits || son.PlanMisses != soff.PlanMisses || son.PlanMisses != 1 {
		t.Fatalf("DisablePlanCache: %s %+v, default %s %+v", off, soff, on, son)
	}
}

// applyPlanStream drives one randomized interval stream through a
// checker with the given options and returns the per-update
// applied/violated outcomes.
func applyPlanStream(t *testing.T, opts Options) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	db := store.New()
	for _, tu := range workload.Intervals(rng, 20, 20, 200) {
		if _, err := db.Insert("l", tu); err != nil {
			t.Fatal(err)
		}
	}
	opts.LocalRelations = []string{"l"}
	c := New(db, opts)
	for i, src := range []string{
		"panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.",
		"panic :- l(X,Y) & Y < X.",
		"panic :- r(Z) & Z < 0.",
		"panic :- l(X,Y) & s(Z) & Y < Z & Z < X.",
	} {
		if err := c.AddConstraintSource(fmt.Sprintf("k%d", i), src); err != nil {
			t.Fatal(err)
		}
	}
	var out []string
	for i := 0; i < 30; i++ {
		var u store.Update
		switch i % 3 {
		case 0:
			u = store.Ins("l", relation.Ints(rng.Int63n(100), 200+rng.Int63n(100)))
		case 1:
			u = store.Ins("r", relation.Ints(300+rng.Int63n(50)))
		default:
			u = store.Ins("r", relation.Ints(rng.Int63n(250)))
		}
		rep, err := c.Apply(u)
		if err != nil {
			t.Fatal(err)
		}
		v := rep.Violations()
		sort.Strings(v)
		out = append(out, fmt.Sprintf("applied=%v violations=%v", rep.Applied, v))
	}
	return out
}

// TestApplyParallelPlanCacheAgrees runs the same stream through two
// checkers that differ only in DisablePlanCache — a no-op since every
// evaluation is compiled when its constraint is added — and every update
// must get the identical verdict: the compiled evaluations decide the
// same way run to run.
func TestApplyParallelPlanCacheAgrees(t *testing.T) {
	cached := applyPlanStream(t, Options{DisableResidual: true,
		DisableUpdateOnly: true, DisableLocalData: true, DisableCache: true})
	plain := applyPlanStream(t, Options{DisablePlanCache: true, DisableResidual: true,
		DisableUpdateOnly: true, DisableLocalData: true, DisableCache: true})
	if len(cached) != len(plain) {
		t.Fatalf("stream lengths differ: %d vs %d", len(cached), len(plain))
	}
	for i := range cached {
		if cached[i] != plain[i] {
			t.Fatalf("update %d: cached arm %q, no-cache arm %q", i, cached[i], plain[i])
		}
	}
}
