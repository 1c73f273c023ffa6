package sched

import (
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relation"
)

// parkedNow is how many goroutines are parked for a task.
func parkedNow(s *Scheduler) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.parked)
}

// settles polls until the process runs at most want goroutines: one that
// was told to exit takes a moment to.
func settles(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want at most %d", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCloseEndsParkedGoroutines: New starts no goroutine, a finished
// task's goroutine parks and serves the next task, and Close — once or
// twice — ends every parked one.
func TestCloseEndsParkedGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	s := New(Options{Workers: 2})
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("New started %d goroutines", n-base)
	}
	release := make(chan struct{})
	var done []chan struct{}
	for i := 0; i < 4; i++ {
		started, d := submitParked(s, wireWrite(uint64(i)), release)
		await(t, started, "a wire task to start")
		done = append(done, d)
	}
	close(release)
	for _, d := range done {
		await(t, d, "a wire task to finish")
	}
	s.Drain()
	if got := parkedNow(s); got != 4 {
		t.Fatalf("%d goroutines parked after four tasks, want 4", got)
	}
	ran := make(chan struct{})
	s.Submit(localWrite(9), func(Info) { close(ran) })
	await(t, ran, "a task on a parked goroutine")
	s.Drain()
	if got := parkedNow(s); got != 4 {
		t.Fatalf("%d goroutines parked after a fifth task, want the same 4", got)
	}
	s.Close()
	if got := parkedNow(s); got != 0 {
		t.Fatalf("%d goroutines parked after Close", got)
	}
	settles(t, base, "after Close")
	s.Close()
	settles(t, base, "after a second Close")
}

// TestParkedGoroutinesBounded: a burst of wire tasks far above the
// workers runs on as many goroutines at once (every task has started
// before any is released), and once the scheduler is quiet at most
// 8 × Workers of them stay parked. The goroutine counts are upper bounds
// only: a goroutine an earlier test told to exit may still be exiting
// when base is taken.
func TestParkedGoroutinesBounded(t *testing.T) {
	const workers, burst = 2, 128
	base := runtime.NumGoroutine()
	s := New(Options{Workers: workers})
	release := make(chan struct{})
	var done []chan struct{}
	for i := 0; i < burst; i++ {
		started, d := submitParked(s, wireWrite(uint64(i)), release)
		await(t, started, "a wire task to start beside the others")
		done = append(done, d)
	}
	close(release)
	for _, d := range done {
		await(t, d, "a wire task to finish")
	}
	s.Drain()
	if got := parkedNow(s); got != 8*workers {
		t.Errorf("%d goroutines parked once quiet, want %d", got, 8*workers)
	}
	settles(t, base+8*workers, "once the burst is over")
	s.Close()
	settles(t, base, "after Close")
}

// TestRecycledNodesKeepAdmissionOrder stresses node recycling: tasks that
// conflict and tasks that do not, some on the wire, footprints built in
// one scratch that the submitter overwrites for the next task. Every task
// runs once, every pair of conflicting tasks in admission order, and at
// every point the graph is the one the footprints make — no node carries
// an earlier task's footprint or waiters.
func TestRecycledNodesKeepAdmissionOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n = 1000
	base := runtime.NumGoroutine()
	s := New(Options{Workers: 3})
	fps := make([]Footprint, n)
	starts, ends := make([]int64, n), make([]int64, n)
	runs := make([]atomic.Int32, n)
	var seq atomic.Int64
	var scratch Footprint
	for i := 0; i < n; i++ {
		f := stressFootprint(rng, i)
		fps[i] = f
		// The submitter's scratch: its arrays, and a Cols array per write
		// slot, are overwritten for the next task.
		scratch = Footprint{Barrier: f.Barrier, Wire: f.Wire, Writes: scratch.Writes[:0], Reads: append(scratch.Reads[:0], f.Reads...)}
		for _, w := range f.Writes {
			scratch.Writes = slices.Grow(scratch.Writes, 1)[:len(scratch.Writes)+1]
			sw := &scratch.Writes[len(scratch.Writes)-1]
			sw.Relation, sw.FP, sw.Cols = w.Relation, w.FP, append(sw.Cols[:0], w.Cols...)
		}
		check := i%50 == 0
		s.Submit(scratch, func(info Info) {
			runs[i].Add(1)
			starts[i] = seq.Add(1)
			if (info.Conflicts > 0) != (info.Cause.Kind != CauseNone) {
				t.Errorf("task %d: %d conflicts, cause %+v", i, info.Conflicts, info.Cause)
			}
			if check {
				checkGraph(t, s, fps)
			}
			if i%13 == 0 {
				time.Sleep(100 * time.Microsecond)
			}
			ends[i] = seq.Add(1)
		})
		if i%100 == 0 {
			checkGraph(t, s, fps)
		}
	}
	closed := make(chan struct{})
	go func() {
		s.Close()
		close(closed)
	}()
	await(t, closed, "every task to finish")
	settles(t, base, "after Close")
	for i := range runs {
		if got := runs[i].Load(); got != 1 {
			t.Fatalf("task %d ran %d times", i, got)
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if fps[i].Conflicts(fps[j]) && ends[i] > starts[j] {
				t.Fatalf("conflicting tasks %d and %d overlapped or ran out of order", i, j)
			}
		}
	}
}

// stressFootprint is task i's footprint: a write into one of eight key
// groups of one of two relations, perhaps a read, perhaps on the wire,
// now and then a barrier — and a keyed read of relation "task" at key i,
// which conflicts with nothing and names the task.
func stressFootprint(rng *rand.Rand, i int) Footprint {
	tag := Read{Relation: "task", Keyed: true, Key: relation.Handle(i)}
	if rng.Intn(20) == 0 {
		return Footprint{Barrier: true, Reads: []Read{tag}}
	}
	rels := []string{"a", "b"}
	k := relation.Handle(rng.Intn(8))
	f := Footprint{
		Wire:   rng.Intn(3) == 0,
		Writes: []Write{{Relation: rels[rng.Intn(2)], FP: uint64(k)<<8 | uint64(rng.Intn(2)), Cols: []relation.Handle{k, relation.Handle(rng.Intn(2))}}},
		Reads:  []Read{tag},
	}
	if rng.Intn(2) == 0 {
		f.Reads = append(f.Reads, Read{Relation: rels[rng.Intn(2)], Keyed: rng.Intn(3) > 0, Key: relation.Handle(rng.Intn(8))})
	}
	return f
}

// checkGraph checks, under the scheduler's lock, that every unfinished
// node holds the footprint of its task (named by its "task" read) and
// waits on exactly the unfinished earlier nodes whose footprints conflict
// with it, and that every free node is cleared.
func checkGraph(t *testing.T, s *Scheduler, fps []Footprint) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var live []*node
	for _, m := range s.inflight {
		if !m.done {
			live = append(live, m)
		}
	}
	for j, n := range live {
		id := -1
		for _, r := range n.fp.Reads {
			if r.Relation == "task" {
				id = int(r.Key)
			}
		}
		if id < 0 || !sameFootprint(n.fp, fps[id]) {
			t.Errorf("a node holds %+v, not its task's footprint", n.fp)
			continue
		}
		deps := 0
		for _, m := range live[:j] {
			waits := slices.Contains(m.waiters, n)
			if waits != m.fp.Conflicts(n.fp) {
				t.Errorf("task %d waits on an earlier node: %v, their footprints conflict: %v", id, waits, !waits)
			}
			if waits {
				deps++
			}
		}
		if n.deps != deps {
			t.Errorf("task %d counts %d dependencies, %d unfinished nodes hold it", id, n.deps, deps)
		}
	}
	for _, m := range s.free {
		if m.run != nil || m.done || m.deps != 0 || len(m.waiters) != 0 || len(m.fp.Writes)+len(m.fp.Reads) != 0 {
			t.Errorf("a free node is not cleared: %+v", m)
		}
	}
}

func sameFootprint(a, b Footprint) bool {
	return a.Barrier == b.Barrier && a.Wire == b.Wire && slices.Equal(a.Reads, b.Reads) &&
		slices.EqualFunc(a.Writes, b.Writes, func(x, y Write) bool {
			return x.Relation == y.Relation && x.FP == y.FP && slices.Equal(x.Cols, y.Cols)
		})
}

// TestSubmitAllocs pins what a warm Submit of an independent task, and
// its run, allocate beyond the caller's closure: nothing. The node comes
// from the free list and the goroutine is a parked one.
func TestSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	s := New(Options{Workers: 2})
	defer s.Close()
	fp := Footprint{
		Writes: []Write{{Relation: "x", FP: 1, Cols: []relation.Handle{1, 2}}},
		Reads:  []Read{{Relation: "y", Keyed: true, Key: 1}, {Relation: "z"}},
	}
	run := func(Info) {}
	submit := func() {
		s.Submit(fp, run)
		s.Drain()
	}
	submit()
	submit()
	if got := testing.AllocsPerRun(200, submit); got != 0 {
		t.Errorf("a warm Submit and its run allocate %v objects, want 0", got)
	}
}
