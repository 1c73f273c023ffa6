package serve

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/store"
)

// TestServerCheckAllocs pins what a warm in-process Check allocates beyond
// the checker's own decision, at one apply worker: nothing. The request's
// task and its reply channel come from a pool.
func TestServerCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	chk := newTestChecker(t, nil)
	s := New(chk, Config{})
	defer s.Close()
	u := store.Ins("r", relation.Ints(100))
	if rep, err := s.Check("a", u); err != nil || !rep.Applied {
		t.Fatalf("rep=%+v err=%v", rep, err)
	}
	decision := testing.AllocsPerRun(200, func() { _, _ = chk.Check(u) })
	got := testing.AllocsPerRun(200, func() { _, _ = s.Check("a", u) })
	if got > decision {
		t.Errorf("Server.Check allocates %v objects, the checker's Check %v", got, decision)
	}
}

// TestScheduledServerCheckAllocs pins what a warm in-process Check
// allocates beyond the checker's own decision above one apply worker,
// where the request footprints itself and the scheduler runs it: nothing.
// The footprint is built in the pooled task's scratch, the task hands the
// scheduler the closure it was pooled with, and the scheduler's node is
// recycled and its goroutine a parked one.
func TestScheduledServerCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	chk := newTestChecker(t, nil)
	s := New(chk, Config{ApplyWorkers: 2})
	defer s.Close()
	u := store.Ins("r", relation.Ints(100))
	for i := 0; i < 2; i++ {
		if rep, err := s.Check("a", u); err != nil || !rep.Applied {
			t.Fatalf("rep=%+v err=%v", rep, err)
		}
	}
	decision := testing.AllocsPerRun(200, func() { _, _ = chk.Check(u) })
	got := testing.AllocsPerRun(200, func() { _, _ = s.Check("a", u) })
	if got > decision {
		t.Errorf("a scheduled Server.Check allocates %v objects, the checker's Check %v", got, decision)
	}
}

// TestScheduledBatchAllocs pins what a warm non-atomic batch allocates
// beyond its members' own decisions above one apply worker, where
// submitBatch makes each member a scheduler task: the reply's reports and
// nothing else. The batch's run — its error slots and the function that
// runs each member — is pooled, every member's footprint is built in the
// task's scratch, and the scheduler's nodes are recycled. The members
// insert tuples the store holds, so the store's own arrays do not churn
// under the count.
func TestScheduledBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	chk := newTestChecker(t, nil)
	s := New(chk, Config{ApplyWorkers: 2})
	defer s.Close()
	const members = 16
	us := make([]store.Update, members)
	for i := range us {
		us[i] = store.Ins("r", relation.Ints(int64(100+i)))
		if _, err := chk.DB().Insert("r", us[i].Tuple); err != nil {
			t.Fatal(err)
		}
	}
	batch := func() {
		if out, err := s.Batch("a", us, false); err != nil || out.Applied != members {
			t.Fatalf("batch: %+v err=%v", out, err)
		}
	}
	batch()
	decisions := testing.AllocsPerRun(100, func() {
		for _, u := range us {
			_, _ = chk.Apply(u)
		}
	})
	got := testing.AllocsPerRun(100, batch)
	if got > decisions+1 {
		t.Errorf("a scheduled batch of %d allocates %v objects, its members' decisions %v", members, got, decisions)
	}
}
