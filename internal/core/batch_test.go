package core

import (
	"slices"
	"testing"

	"repro/internal/relation"
	"repro/internal/store"
)

func TestApplyBatchCommit(t *testing.T) {
	c := newChecker(t, "dept(toy).", Options{})
	if err := c.AddConstraintSource("ri", "panic :- emp(E,D) & not dept(D)."); err != nil {
		t.Fatal(err)
	}
	br, err := c.ApplyBatch([]store.Update{
		store.Ins("dept", relation.Strs("shoe")),
		store.Ins("emp", relation.Strs("ann", "shoe")),
		store.Ins("emp", relation.Strs("bob", "toy")),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !br.Applied || br.FailedAt != -1 || len(br.Reports) != 3 {
		t.Fatalf("batch report = %+v", br)
	}
	if !c.DB().Contains("emp", relation.Strs("ann", "shoe")) {
		t.Error("batch not applied")
	}
}

func TestApplyBatchAtomicRollback(t *testing.T) {
	c := newChecker(t, "dept(toy).", Options{})
	if err := c.AddConstraintSource("ri", "panic :- emp(E,D) & not dept(D)."); err != nil {
		t.Fatal(err)
	}
	br, err := c.ApplyBatch([]store.Update{
		store.Ins("dept", relation.Strs("shoe")),        // fine
		store.Ins("emp", relation.Strs("ann", "shoe")),  // fine
		store.Ins("emp", relation.Strs("eve", "ghost")), // violates
		store.Ins("dept", relation.Strs("never")),       // must not run
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.Applied || br.FailedAt != 2 {
		t.Fatalf("batch report = %+v", br)
	}
	// Everything rolled back, including the earlier successful updates.
	for _, gone := range []struct {
		rel string
		tu  relation.Tuple
	}{
		{"dept", relation.Strs("shoe")},
		{"emp", relation.Strs("ann", "shoe")},
		{"emp", relation.Strs("eve", "ghost")},
		{"dept", relation.Strs("never")},
	} {
		if c.DB().Contains(gone.rel, gone.tu) {
			t.Errorf("%s%v survived the rollback", gone.rel, gone.tu)
		}
	}
	if !c.DB().Contains("dept", relation.Strs("toy")) {
		t.Error("pre-batch state damaged")
	}
	if bad := c.CheckAll(); len(bad) != 0 {
		t.Errorf("constraints violated after rollback: %v", bad)
	}
}

func TestApplyBatchDuplicateInside(t *testing.T) {
	// A tuple inserted twice within one batch must survive rollback
	// decisions correctly: rolling back deletes it once, and a
	// pre-existing tuple re-inserted in the batch must NOT be deleted.
	c := newChecker(t, "dept(toy).", Options{})
	if err := c.AddConstraintSource("ri", "panic :- emp(E,D) & not dept(D)."); err != nil {
		t.Fatal(err)
	}
	br, err := c.ApplyBatch([]store.Update{
		store.Ins("dept", relation.Strs("toy")),         // duplicate of pre-existing
		store.Ins("emp", relation.Strs("eve", "ghost")), // violates
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.Applied {
		t.Fatal("violating batch applied")
	}
	if !c.DB().Contains("dept", relation.Strs("toy")) {
		t.Error("pre-existing tuple deleted by rollback of duplicate insert")
	}
}

func TestApplyBatchDeleteRollback(t *testing.T) {
	c := newChecker(t, "dept(toy). dept(shoe). emp(ann,toy).", Options{})
	if err := c.AddConstraintSource("ri", "panic :- emp(E,D) & not dept(D)."); err != nil {
		t.Fatal(err)
	}
	br, err := c.ApplyBatch([]store.Update{
		store.Del("dept", relation.Strs("shoe")), // fine (no shoe employees)
		store.Del("dept", relation.Strs("toy")),  // violates (ann)
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.Applied || br.FailedAt != 1 {
		t.Fatalf("batch report = %+v", br)
	}
	if !c.DB().Contains("dept", relation.Strs("shoe")) {
		t.Error("first deletion not rolled back")
	}
	if !c.DB().Contains("dept", relation.Strs("toy")) {
		t.Error("violating deletion not rolled back")
	}
}

func TestApplyBatchEmpty(t *testing.T) {
	c := newChecker(t, "", Options{})
	br, err := c.ApplyBatch(nil)
	if err != nil || !br.Applied || len(br.Reports) != 0 {
		t.Errorf("empty batch: %+v %v", br, err)
	}
}

// A batch that ends in an error was not applied, and says so.
func TestApplyBatchErrorIsNotApplied(t *testing.T) {
	c := newChecker(t, "dept(toy). emp(ann,toy).", Options{})
	if err := c.AddConstraintSource("ri", "panic :- emp(E,D) & not dept(D)."); err != nil {
		t.Fatal(err)
	}
	pre := storeState(c.DB())
	br, err := c.ApplyBatch([]store.Update{
		store.Ins("dept", relation.Strs("shoe")),
		store.Ins("emp", relation.Strs("bob", "shoe", "extra")), // emp has arity 2
	})
	if err == nil || br.Applied || br.FailedAt != -1 || len(br.Reports) != 1 {
		t.Fatalf("wrong-arity member: %+v err=%v, want an error, Applied false, FailedAt -1 and the first report", br, err)
	}
	if got := storeState(c.DB()); got != pre {
		t.Errorf("the failed batch wrote the store:\nbefore:\n%s\nafter:\n%s", pre, got)
	}
}

// A store that refuses a batch's writes after publish took them — a
// relation one of them inserts into was created meanwhile with another
// arity — comes out unchanged, and publish is handed the inverse.
func TestRefusedWriteLeavesStoreUnchanged(t *testing.T) {
	c := newChecker(t, "dept(toy).", Options{})
	if err := c.AddConstraintSource("ri", "panic :- emp(E,D) & not dept(D)."); err != nil {
		t.Fatal(err)
	}
	var published [][]store.Update
	publish := func(ws []store.Update) error {
		// publish may not keep ws past the call: keep a copy.
		published = append(published, slices.Clone(ws))
		if len(published) == 1 {
			_, err := c.DB().Insert("log", relation.Strs("a", "b"))
			return err
		}
		return nil
	}
	plans := c.AppendPlans(nil, []store.Update{
		store.Ins("dept", relation.Strs("shoe")),
		store.Ins("emp", relation.Strs("bob", "shoe")),
		store.Ins("log", relation.Strs("x")), // log is created with arity 2 meanwhile
	})
	br, err := c.DecideAll(nil, plans, true, publish)
	if err == nil || br.Applied || br.FailedAt != -1 || len(br.Reports) != 3 {
		t.Fatalf("%+v err=%v, want an error, Applied false, FailedAt -1 and three reports", br, err)
	}
	if c.DB().Contains("dept", relation.Strs("shoe")) || c.DB().Contains("emp", relation.Strs("bob", "shoe")) {
		t.Errorf("the refused batch wrote the store:\n%s", storeState(c.DB()))
	}
	if len(published) != 2 || len(published[1]) != len(published[0]) {
		t.Fatalf("published %v, want the writes and then their inverse", published)
	}
	for i, w := range published[1] {
		if u := published[0][i]; w.Insert == u.Insert || w.Relation != u.Relation || !w.Tuple.Equal(u.Tuple) {
			t.Errorf("withdrawal %d is %v, want the inverse of %v", i, w, u)
		}
	}
}

// A member is decided with the members before it pending: an earlier
// member's insert certifies a later one, and a stored tuple an earlier
// member deletes certifies nothing.
func TestBatchCertificatesSeeEarlierMembers(t *testing.T) {
	build := func() *Checker {
		c := newChecker(t, "dept(toy). dept(shoe). emp(ann,shoe).", Options{LocalRelations: []string{"emp"}})
		if err := c.AddConstraintSource("ri", "panic :- emp(E,D) & not dept(D)."); err != nil {
			t.Fatal(err)
		}
		return c
	}
	c := build()
	br, err := c.ApplyBatch([]store.Update{
		store.Ins("emp", relation.Strs("bob", "toy")), // nobody in toy: the plan runs
		store.Ins("emp", relation.Strs("cid", "toy")), // certified by bob
	})
	if err != nil || !br.Applied {
		t.Fatalf("%+v err=%v", br, err)
	}
	if w := br.Reports[0].Witness("ri"); w != nil {
		t.Errorf("the first member was certified by %v, with nobody in toy", w)
	}
	if w := br.Reports[1].Witness("ri"); !w.Equal(relation.Strs("bob", "toy")) {
		t.Errorf("the second member's witness is %v, want emp(bob,toy) of the first member", w)
	}
	if !c.DB().Contains("emp", relation.Strs("cid", "toy")) {
		t.Error("the batch was not written")
	}

	// ann is shoe's only employee: once she is gone, shoe may go, and then
	// no insert into shoe is safe — ann certifies nothing for it.
	c = build()
	pre := storeState(c.DB())
	br, err = c.ApplyBatch([]store.Update{
		store.Del("emp", relation.Strs("ann", "shoe")),
		store.Del("dept", relation.Strs("shoe")),
		store.Ins("emp", relation.Strs("dan", "shoe")),
	})
	if err != nil || br.Applied || br.FailedAt != 2 {
		t.Fatalf("%+v err=%v, want a rejection at 2", br, err)
	}
	if w := br.Reports[2].Witness("ri"); w != nil {
		t.Errorf("the deleted emp(ann,shoe) certified %v", w)
	}
	if got := storeState(c.DB()); got != pre {
		t.Errorf("the rejected batch wrote the store:\nbefore:\n%s\nafter:\n%s", pre, got)
	}
}

// Kept fixpoints across a batch: a tuple inserted and then deleted is
// not in the state later members are decided in, and after an earlier
// member deletes from a relation the fixpoint derives from, its rows no
// longer describe that state — the later members evaluate from scratch.
// In both batches the last edge closes a cycle only through rows the
// kept fixpoint would still hold.
func TestBatchKeptFixpointFollowsEarlierMembers(t *testing.T) {
	for _, c := range []struct {
		name    string
		batch   []store.Update
		want    string
		closing relation.Tuple
	}{
		{"insert then delete", []store.Update{
			store.Ins("edge", relation.Ints(3, 4)),
			store.Del("edge", relation.Ints(3, 4)),
			store.Ins("edge", relation.Ints(4, 1)),
		}, "edge(1,2).\nedge(2,3).\nedge(4,1).\nedge(5,6).", relation.Ints(3, 4)},
		{"delete first", []store.Update{
			store.Del("edge", relation.Ints(1, 2)),
			store.Ins("edge", relation.Ints(3, 1)),
		}, "edge(2,3).\nedge(3,1).\nedge(5,6).", relation.Ints(1, 2)},
	} {
		chk := newChecker(t, "edge(1,2). edge(2,3).", Options{})
		if err := chk.AddConstraintSource("acyclic", "reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- reach(X,Z) & edge(Z,Y).\npanic :- reach(X,X)."); err != nil {
			t.Fatal(err)
		}
		// Warm: an insert builds the kept fixpoint.
		if rep, err := chk.Apply(store.Ins("edge", relation.Ints(5, 6))); err != nil || !rep.Applied {
			t.Fatalf("%s: warm-up: %+v %v", c.name, rep, err)
		}
		br, err := chk.ApplyBatch(c.batch)
		if err != nil || !br.Applied {
			t.Fatalf("%s: %+v err=%v, want the batch admitted", c.name, br, err)
		}
		if got := sortedLines(chk.DB().Dump()); got != c.want {
			t.Errorf("%s: store\n%s\nwant\n%s", c.name, got, c.want)
		}
		checkKept(t, chk)
		// The edge that does close a cycle now is refused.
		if rep, err := chk.Check(store.Ins("edge", c.closing)); err != nil || rep.Applied {
			t.Errorf("%s: edge%v after the batch: %+v %v", c.name, c.closing, rep, err)
		}
	}
}

func TestApplyBatchPolarityPhaseUsed(t *testing.T) {
	c := newChecker(t, "dept(toy).", Options{DisableResidual: true})
	if err := c.AddConstraintSource("ri", "panic :- emp(E,D) & not dept(D)."); err != nil {
		t.Fatal(err)
	}
	br, err := c.ApplyBatch([]store.Update{
		store.Ins("dept", relation.Strs("a")),
		store.Ins("dept", relation.Strs("b")),
	})
	if err != nil || !br.Applied {
		t.Fatalf("%+v %v", br, err)
	}
	for _, rep := range br.Reports {
		for _, d := range rep.Decisions {
			if d.Phase != PhasePolarity {
				t.Errorf("dept insert decided by %v, want polarity", d.Phase)
			}
		}
	}
}
