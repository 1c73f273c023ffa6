package sched

import (
	"math/rand"
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
	met := NewMetrics(reg, "test")
	s := New(Options{Workers: 2, Metrics: met})
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
		if got := met.ConflictStalls[kind].Value(); got != want {
			t.Errorf("stalls{reason=%q} = %d, want %d", kind, got, want)
		}
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if want := `cc_sched_conflict_stalls_total{layer="test",reason="keyed-read"} 1`; !strings.Contains(sb.String(), want) {
		t.Errorf("exposition lacks %s", want)
	}
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
