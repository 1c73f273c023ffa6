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
