package dist

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

func TestLocalCertificationAvoidsRemote(t *testing.T) {
	db := store.New()
	for _, tu := range []relation.Tuple{relation.Ints(0, 50), relation.Ints(40, 100)} {
		if _, err := db.Insert("l", tu); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(200); i < 210; i++ {
		if _, err := db.Insert("r", relation.Ints(i)); err != nil {
			t.Fatal(err)
		}
	}
	// The assertions pin the staged pipeline's locality model: residual
	// dispatch would decide covered insertions too, but by probing r.
	sys := NewWithOptions(db, core.Options{
		LocalRelations:  []string{"l"},
		DisableResidual: true,
	}, DefaultCost)
	if err := sys.Checker.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
		t.Fatal(err)
	}
	db.ResetReads()
	// Covered insertions: all certified locally, zero remote cost.
	for _, u := range []store.Update{
		store.Ins("l", relation.Ints(5, 20)),
		store.Ins("l", relation.Ints(10, 60)),
		store.Ins("l", relation.Ints(45, 95)),
	} {
		rep, err := sys.Apply(u)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Applied {
			t.Fatalf("covered insertion %v rejected", u)
		}
	}
	st := sys.Stats()
	if st.RemoteTuples != 0 || st.RemoteTrips != 0 || st.Cost != 0 {
		t.Errorf("remote access on locally-certifiable stream: %+v", st)
	}
	if st.DecidedLocally != 3 {
		t.Errorf("DecidedLocally = %d, want 3", st.DecidedLocally)
	}
	// An uncovered insertion forces a remote trip — one that ships no
	// tuple: the global evaluation reads r by a range step over [150,160],
	// which holds no point.
	if _, err := sys.Apply(store.Ins("l", relation.Ints(150, 160))); err != nil {
		t.Fatal(err)
	}
	st = sys.Stats()
	if st.RemoteTrips != 1 || st.RemoteTuples != 0 {
		t.Errorf("uncovered insertion did not reach remote: %+v", st)
	}
	if st.Cost < DefaultCost.RemoteLatency {
		t.Errorf("cost %v below one latency charge", st.Cost)
	}
}

func TestAblationLocalPhase(t *testing.T) {
	// With the local-data phase disabled, the same covered stream must
	// pay remote costs — the measurable value of Sections 5–6.
	mk := func(disableLocal bool) Stats {
		db := store.New()
		for _, tu := range workload.Intervals(rand.New(rand.NewSource(1)), 40, 20, 100) {
			if _, err := db.Insert("l", tu); err != nil {
				t.Fatal(err)
			}
		}
		// Remote points far outside the spread, so no update violates.
		for i := int64(0); i < 20; i++ {
			if _, err := db.Insert("r", relation.Ints(1000+i)); err != nil {
				t.Fatal(err)
			}
		}
		sys := NewWithOptions(db, core.Options{
			LocalRelations:   []string{"l"},
			DisableLocalData: disableLocal,
			DisableResidual:  true,
		}, DefaultCost)
		if err := sys.Checker.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
			t.Fatal(err)
		}
		db.ResetReads()
		rng := rand.New(rand.NewSource(2))
		for _, u := range workload.IntervalInserts(rng, 30, 10, 100, "l") {
			if _, err := sys.Apply(u); err != nil {
				t.Fatal(err)
			}
		}
		return sys.Stats()
	}
	withLocal := mk(false)
	withoutLocal := mk(true)
	if withLocal.DecidedLocally <= withoutLocal.DecidedLocally {
		t.Errorf("local phase gained nothing: with=%d without=%d",
			withLocal.DecidedLocally, withoutLocal.DecidedLocally)
	}
	if withLocal.Cost >= withoutLocal.Cost {
		t.Errorf("local phase did not reduce cost: with=%.0f without=%.0f",
			withLocal.Cost, withoutLocal.Cost)
	}
}

func TestEmployeeWorkloadEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	db := store.New()
	if err := workload.EmployeeDB(rng, db, 4, 30); err != nil {
		t.Fatal(err)
	}
	sys := New(db, []string{"emp", "dept", "salRange"}, DefaultCost)
	for name, src := range workload.StandardEmployeeConstraints() {
		if err := sys.Checker.AddConstraintSource(name, src); err != nil {
			t.Fatal(err)
		}
	}
	db.ResetReads()
	for _, u := range workload.EmployeeUpdates(rng, 60, 4, 0.2) {
		if _, err := sys.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	st := sys.Stats()
	if st.Updates != 60 {
		t.Errorf("updates = %d", st.Updates)
	}
	if st.Rejected == 0 {
		t.Error("violating stream produced no rejections")
	}
	// The store must satisfy every constraint afterwards.
	for name, src := range workload.StandardEmployeeConstraints() {
		bad, err := eval.PanicHolds(parser.MustParseProgram(src), db)
		if err != nil {
			t.Fatal(err)
		}
		if bad {
			t.Errorf("constraint %s violated after simulation", name)
		}
	}
	if sys.Report() == "" {
		t.Error("empty report")
	}
}
