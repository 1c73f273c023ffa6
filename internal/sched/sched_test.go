package sched

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/relation"
)

// TestAdmissionOrder is the directed conflict test: two conflicting
// tasks must run in admission order even when the first is slow and the
// pool has idle workers that could run the second.
func TestAdmissionOrder(t *testing.T) {
	s := New(Options{Workers: 4})
	defer s.Close()

	var order []string
	var mu sync.Mutex
	stamp := func(name string) {
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}

	w := Footprint{Writes: []Write{{Relation: "x", FP: 42}}}
	s.Submit(w, func(Info) {
		time.Sleep(30 * time.Millisecond)
		stamp("insert")
	})
	s.Submit(w, func(info Info) {
		if info.Conflicts == 0 {
			t.Error("second writer of the same tuple should report a conflict stall")
		}
		if info.Cause.Kind != CauseSameTuple || info.Cause.Reason() != "same-tuple write of x" {
			t.Errorf("stall cause = %+v (%q), want a same-tuple write of x", info.Cause, info.Cause.Reason())
		}
		stamp("delete")
	})
	s.Drain()

	if len(order) != 2 || order[0] != "insert" || order[1] != "delete" {
		t.Fatalf("conflicting tasks ran as %v, want [insert delete]", order)
	}
	st := s.Stats()
	if st.Tasks != 2 || st.ConflictStalls != 1 {
		t.Fatalf("stats = %+v, want 2 tasks, 1 stall", st)
	}
}

// TestIndependentTasksOverlap proves independent tasks really run
// concurrently: the first task blocks until the second one starts, which
// can only happen with overlapping execution.
func TestIndependentTasksOverlap(t *testing.T) {
	s := New(Options{Workers: 2})
	defer s.Close()

	second := make(chan struct{})
	done := make(chan struct{})
	s.Submit(Footprint{Writes: []Write{{Relation: "x", FP: 1}}, Reads: []Read{{Relation: "r"}}}, func(Info) {
		select {
		case <-second:
		case <-time.After(5 * time.Second):
			t.Error("independent task was serialized behind the first")
		}
		close(done)
	})
	s.Submit(Footprint{Writes: []Write{{Relation: "x", FP: 2}}, Reads: []Read{{Relation: "r"}}}, func(Info) {
		close(second)
	})
	<-done
	s.Drain()
}

// TestRandomizedSerializability hammers the scheduler with tasks over a
// small footprint space and asserts the core guarantee: every pair of
// conflicting tasks executes in admission order (the earlier one
// finishes before the later one starts).
func TestRandomizedSerializability(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	rels := []string{"a", "b", "c"}

	for _, workers := range []int{2, 4, 8} {
		s := New(Options{Workers: workers})

		const n = 400
		fps := make([]Footprint, n)
		starts := make([]int64, n)
		ends := make([]int64, n)
		var seq atomic.Int64

		for i := 0; i < n; i++ {
			var f Footprint
			switch rng.Intn(10) {
			case 0:
				f = Barrier()
			default:
				// One-column tuples over four keys; reads whole or of one
				// key group, so keyed and whole claims both meet writes
				// inside and outside their group.
				k := relation.Handle(rng.Intn(4))
				f = Footprint{
					Writes: []Write{{Relation: rels[rng.Intn(len(rels))], FP: uint64(k), Cols: []relation.Handle{k}}},
				}
				if rng.Intn(2) == 0 {
					f.Reads = []Read{{Relation: rels[rng.Intn(len(rels))], Keyed: rng.Intn(3) > 0, Key: relation.Handle(rng.Intn(4))}}
				}
			}
			fps[i] = f
			i := i
			s.Submit(f, func(Info) {
				starts[i] = seq.Add(1)
				if i%7 == 0 {
					time.Sleep(time.Millisecond)
				}
				ends[i] = seq.Add(1)
			})
		}
		s.Close()

		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if !fps[i].Conflicts(fps[j]) {
					continue
				}
				if ends[i] > starts[j] {
					t.Fatalf("workers=%d: conflicting tasks %d and %d overlapped or ran out of order (end[%d]=%d, start[%d]=%d)",
						workers, i, j, i, ends[i], j, starts[j])
				}
			}
		}
	}
}

// TestConcurrentSubmitters exercises Submit from many goroutines under
// the race detector.
func TestConcurrentSubmitters(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{Workers: 4, Metrics: NewMetrics(reg, "test")})

	var ran atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				f := Footprint{Writes: []Write{{Relation: "x", FP: uint64(g*1000 + i)}}}
				s.Submit(f, func(Info) { ran.Add(1) })
			}
		}(g)
	}
	wg.Wait()
	s.Drain()
	if ran.Load() != 400 {
		t.Fatalf("ran %d tasks, want 400", ran.Load())
	}
	st := s.Stats()
	if st.Inflight != 0 {
		t.Fatalf("inflight after drain = %d, want 0", st.Inflight)
	}
	s.Close()
	if got := st.Tasks; got != 400 {
		t.Fatalf("stats tasks = %d, want 400", got)
	}
}

// TestStallReasonMetric: a stalled submission is counted under the kind
// of its first conflict, and only there.
func TestStallReasonMetric(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(Options{Workers: 2, Metrics: NewMetrics(reg, "test")})
	release := make(chan struct{})
	k := relation.Handle(3)
	s.Submit(Footprint{Writes: []Write{{Relation: "emp", FP: 1, Cols: []relation.Handle{0, k}}}}, func(Info) { <-release })
	s.Submit(Footprint{Writes: []Write{{Relation: "dept", FP: 2}}, Reads: []Read{{Relation: "emp", Keyed: true, Col: 1, Key: k}}}, func(Info) {})
	s.Submit(Footprint{Writes: []Write{{Relation: "dept", FP: 3}}, Reads: []Read{{Relation: "emp", Keyed: true, Col: 1, Key: k + 1}}}, func(Info) {})
	close(release)
	s.Close()
	for kind := CauseBarrier; kind <= CauseWholeRead; kind++ {
		want := int64(0)
		if kind == CauseKeyedRead {
			want = 1
		}
		if got := series(t, reg, fmt.Sprintf(`cc_sched_conflict_stalls_total{layer="test",reason="%s"}`, kind)); got != want {
			t.Errorf("stalls{reason=%q} = %d, want %d", kind, got, want)
		}
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if want := `cc_sched_conflict_stalls_total{layer="test",reason="keyed-read"} 1`; !strings.Contains(sb.String(), want) {
		t.Errorf("exposition lacks %s", want)
	}
}

// series reads one counter or gauge series from the registry, as a
// scrape sees it.
func series(t *testing.T, reg *obs.Registry, key string) int64 {
	t.Helper()
	v, ok := reg.Snapshot()[key].(int64)
	if !ok {
		t.Fatalf("the registry has no series %s", key)
	}
	return v
}

// TestDrainWaitsForStalledChains: Drain must wait for tasks that are
// admitted but still blocked behind a conflicting predecessor.
func TestDrainWaitsForStalledChains(t *testing.T) {
	s := New(Options{Workers: 4})
	defer s.Close()

	var done atomic.Int64
	w := Footprint{Writes: []Write{{Relation: "x", FP: 7}}}
	for i := 0; i < 5; i++ {
		s.Submit(w, func(Info) {
			time.Sleep(5 * time.Millisecond)
			done.Add(1)
		})
	}
	s.Drain()
	if done.Load() != 5 {
		t.Fatalf("Drain returned with %d/5 tasks finished", done.Load())
	}
}

// await fails the test when the event does not arrive: the tests below
// synchronize on events only, and a scheduler that never delivers one
// must fail rather than hang.
func await(t *testing.T, ch <-chan struct{}, what string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(10 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
	}
}

// submitParked admits a task that reports it started and then waits for
// release; done is closed when it returns.
func submitParked(s *Scheduler, fp Footprint, release <-chan struct{}) (started, done chan struct{}) {
	started, done = make(chan struct{}), make(chan struct{})
	s.Submit(fp, func(Info) {
		close(started)
		<-release
		close(done)
	})
	return started, done
}

// unpark closes release unless the test already has, so that a failed
// test's deferred Close finds nothing parked.
func unpark(release chan struct{}) {
	select {
	case <-release:
	default:
		close(release)
	}
}

// passBy runs a few independent wire tasks to completion, one after the
// other. A task admitted before them that the scheduler was going to
// start has, by every likelihood, started when they are through: that
// something does not happen cannot be waited for, only given time.
func passBy(t *testing.T, s *Scheduler, what string) {
	t.Helper()
	for i := 0; i < 8; i++ {
		done := make(chan struct{})
		s.Submit(wireWrite(uint64(1000+i)), func(Info) { close(done) })
		await(t, done, "a wire task to pass "+what)
		runtime.Gosched() // whatever else is runnable goes first
	}
}

func localWrite(fp uint64) Footprint { return Footprint{Writes: []Write{{Relation: "x", FP: fp}}} }

func wireWrite(fp uint64) Footprint {
	return Footprint{Wire: true, Writes: []Write{{Relation: "x", FP: fp}}}
}

// TestWireTasksHoldNoWorker: Workers counts tasks that compute. Eight
// tasks parked on a site do not keep the one worker from a local task
// admitted after them — the millisecond a cheap decision used to queue
// behind somebody else's round trip.
func TestWireTasksHoldNoWorker(t *testing.T) {
	reg := obs.NewRegistry()
	met := NewMetrics(reg, "test")
	s := New(Options{Workers: 1, Metrics: met})
	release := make(chan struct{})
	var parked []chan struct{}
	for i := 0; i < 8; i++ {
		started, done := submitParked(s, wireWrite(uint64(i)), release)
		await(t, started, "a wire task to start beside the others")
		parked = append(parked, done)
	}
	// The task below reads it off the test's goroutine: no Fatal there.
	busy := func() any { return reg.Snapshot()[`cc_sched_workers_busy{layer="test"}`] }
	if got := busy(); got != int64(0) {
		t.Errorf("workers busy with eight tasks on the wire = %d, want 0", got)
	}
	local := make(chan struct{})
	s.Submit(localWrite(100), func(info Info) {
		if info.WorkerWait != 0 || info.ConflictWait != 0 {
			t.Errorf("local task beside parked wire tasks waited: %+v", info)
		}
		if got := busy(); got != int64(1) {
			t.Errorf("workers busy inside the local task = %d, want 1", got)
		}
		close(local)
	})
	await(t, local, "the local task to finish while eight wire tasks are parked")
	if got := s.Stats().Inflight; got < 8 {
		t.Errorf("inflight = %d with eight tasks parked", got)
	}
	close(release)
	s.Close()
	for _, done := range parked {
		await(t, done, "a parked task to have finished by Close")
	}
	if _, _, n := met.WorkerWait.Snapshot(); n != 1 {
		t.Errorf("worker-wait observations = %d, want 1: only the local task takes a token", n)
	}
	if _, _, n := met.ConflictWait.Snapshot(); n != 9 {
		t.Errorf("conflict-wait observations = %d, want one per task (9)", n)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	for _, want := range []string{`cc_sched_wait_seconds_count{layer="test",kind="worker"} 1`, `cc_sched_wait_seconds_count{layer="test",kind="conflict"} 9`} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("exposition lacks %s", want)
		}
	}
}

// TestWorkersBoundLocalTasks: a task that only computes holds a worker.
// With one worker a second local task does not start while the first is
// parked — not even while a wire task admitted after it comes and goes —
// and starts once the first is done.
func TestWorkersBoundLocalTasks(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	release, bStarted := make(chan struct{}), make(chan struct{})
	defer unpark(release)
	var order []string
	aStarted, aDone := make(chan struct{}), make(chan struct{})
	s.Submit(localWrite(1), func(Info) {
		close(aStarted)
		select {
		case <-bStarted:
			t.Error("two local tasks overlapped on one worker")
		case <-release:
		}
		order = append(order, "a")
		close(aDone)
	})
	await(t, aStarted, "the first local task to start")
	bDone := make(chan struct{})
	s.Submit(localWrite(2), func(Info) {
		close(bStarted)
		order = append(order, "b") // a's append happens before: the token passed from a to b
		close(bDone)
	})
	passBy(t, s, "the two local tasks")
	close(release)
	await(t, aDone, "the first local task to finish")
	await(t, bDone, "the second local task to run once the worker is free")
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("local tasks ran as %v, want [a b]", order)
	}
}

// TestWorkersBoundConcurrency: however many independent local tasks are
// ready, at most Workers of them run at once.
func TestWorkersBoundConcurrency(t *testing.T) {
	const workers, n = 2, 200
	s := New(Options{Workers: workers})
	var running, most, ran atomic.Int64
	for i := 0; i < n; i++ {
		s.Submit(localWrite(uint64(i)), func(Info) {
			now := running.Add(1)
			for {
				m := most.Load()
				if now <= m || most.CompareAndSwap(m, now) {
					break
				}
			}
			runtime.Gosched()
			running.Add(-1)
			ran.Add(1)
		})
	}
	s.Close()
	if ran.Load() != n {
		t.Fatalf("ran %d of %d tasks", ran.Load(), n)
	}
	if most.Load() > workers {
		t.Fatalf("%d local tasks ran at once on %d workers", most.Load(), workers)
	}
}

// TestWireTaskWaitsForConflict: holding no worker exempts a task from
// nothing else. One that conflicts with a parked task starts only once
// that task has finished, and is told what it waited for.
func TestWireTaskWaitsForConflict(t *testing.T) {
	s := New(Options{Workers: 1})
	defer s.Close()
	release, secondStarted := make(chan struct{}), make(chan struct{})
	defer unpark(release)
	firstStarted, firstDone := make(chan struct{}), make(chan struct{})
	s.Submit(wireWrite(7), func(Info) {
		close(firstStarted)
		select {
		case <-secondStarted:
			t.Error("a wire task started beside the conflicting task admitted before it")
		case <-release:
		}
		close(firstDone)
	})
	await(t, firstStarted, "the first writer to start")
	secondDone := make(chan struct{})
	s.Submit(wireWrite(7), func(info Info) {
		close(secondStarted)
		select {
		case <-firstDone:
		default:
			t.Error("second writer of the tuple started before the first finished")
		}
		if info.Conflicts != 1 || info.Cause.Kind != CauseSameTuple || info.ConflictWait <= 0 || info.WorkerWait != 0 {
			t.Errorf("stalled wire task's info = %+v, want one same-tuple conflict, a conflict wait and no worker wait", info)
		}
		close(secondDone)
	})
	passBy(t, s, "the stalled task")
	close(release)
	await(t, secondDone, "the second writer to run after the first")
}

// TestDrainAndCloseWaitForWireTasks: a task on the wire is in flight like
// any other — Drain and Close return only after it has.
func TestDrainAndCloseWaitForWireTasks(t *testing.T) {
	for _, name := range []string{"Drain", "Close"} {
		s := New(Options{Workers: 1})
		release := make(chan struct{})
		var parked []chan struct{}
		for i := 0; i < 4; i++ {
			started, done := submitParked(s, wireWrite(uint64(i)), release)
			await(t, started, "a wire task to start")
			parked = append(parked, done)
		}
		go close(release)
		if name == "Drain" {
			s.Drain()
		} else {
			s.Close()
		}
		for i, done := range parked {
			select {
			case <-done:
			default:
				t.Fatalf("%s returned with parked wire task %d unfinished", name, i)
			}
		}
		s.Close()
	}
}
