package serve

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/netdist"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/store"
)

// parkedWire is a Transport whose round trips, once park is set, announce
// themselves on arrived and wait for release: a site that has the
// request and has not answered yet.
type parkedWire struct {
	netdist.Transport
	park    atomic.Bool
	frames  atomic.Int64
	arrived chan struct{}
	release chan struct{}
}

func (p *parkedWire) RoundTrip(site string, req *netdist.Request, timeout time.Duration) (*netdist.Response, error) {
	if p.park.Load() {
		p.frames.Add(1)
		p.arrived <- struct{}{}
		<-p.release
	}
	return p.Transport.RoundTrip(site, req, timeout)
}

// decide sends one check or apply and renders what a client can tell
// apart in the answer.
func decide(s *Server, client string, check bool, u store.Update) string {
	call := s.Apply
	if check {
		call = s.Check
	}
	rep, err := call(client, u)
	return fmt.Sprintf("applied=%v violations=%v err=%v", rep.Applied, rep.Violations(), err)
}

// TestLocalDecisionsPassTasksOnTheWire is the paper's promise on the
// clock: an update that constraints, the update and local data decide is
// answered without a remote access — and without waiting for anybody
// else's. Two apply workers, eight emp inserts that no stored employee
// certifies parked on their dept fetch; an emp insert with a witness in
// its department, an emp delete and an l check inside a stored interval
// are each answered while all eight are still parked, having sent
// nothing. Then the wire is released and verdicts, mirror and merged site
// stores are one worker's.
func TestLocalDecisionsPassTasksOnTheWire(t *testing.T) {
	const parked = 8
	// Departments 6 and 7 exist and have no employee: nothing certifies.
	var wired []store.Update
	for i := int64(0); i < parked; i++ {
		wired = append(wired, store.Ins("emp", relation.Ints(3000+i, 6+i%2)))
	}
	local := []struct {
		name  string
		check bool
		u     store.Update
	}{
		{"emp insert with a same-department witness", false, store.Ins("emp", relation.Ints(4000, 0))},
		{"emp delete", false, store.Del("emp", relation.Ints(1001, 1))},
		{"l check inside a seeded interval", true, store.Ins("l", relation.Ints(2, 8))},
	}

	wire := &parkedWire{arrived: make(chan struct{}, parked), release: make(chan struct{})}
	s, co, sites := shardedFixture(t, 2, 64, func(tr netdist.Transport) netdist.Transport {
		wire.Transport = tr
		return wire
	})
	wire.park.Store(true)
	var releaseOnce sync.Once
	release := func() { releaseOnce.Do(func() { close(wire.release) }) }
	defer s.Close()
	defer release()

	got := make([]string, parked+len(local))
	var wg sync.WaitGroup
	for i, u := range wired {
		wg.Add(1)
		go func(i int, u store.Update) {
			defer wg.Done()
			got[i] = decide(s, "wire", false, u)
		}(i, u)
	}
	for i := 0; i < parked; i++ {
		select {
		case <-wire.arrived:
		case <-time.After(10 * time.Second):
			t.Fatalf("%d of %d uncertified inserts reached the wire: the rest are waiting for a worker", i, parked)
		}
	}
	for i, c := range local {
		answered := make(chan string, 1)
		go func() { answered <- decide(s, "local", c.check, c.u) }()
		select {
		case got[parked+i] = <-answered:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s was not answered while %d tasks are parked on the wire", c.name, parked)
		}
		if frames := wire.frames.Load(); frames != parked {
			t.Fatalf("%s: %d frames sent so far, want the %d parked fetches only", c.name, frames, parked)
		}
	}
	// An answered task leaves the scheduler just after its answer.
	waitFor(t, "the scheduler to hold the parked tasks only", func() bool { return s.Stats().SchedInflight == parked })
	release()
	wg.Wait()
	s.Close()

	seq, seqCo, seqSites := shardedFixture(t, 1, 64, nil)
	defer seq.Close()
	for i, u := range wired {
		if want := decide(seq, "seq", false, u); got[i] != want {
			t.Errorf("%s answered %q, sequential arm %q", u, got[i], want)
		}
	}
	for i, c := range local {
		if want := decide(seq, "seq", c.check, c.u); got[parked+i] != want {
			t.Errorf("%s answered %q, sequential arm %q", c.name, got[parked+i], want)
		}
	}
	if a, b := dump(co.Checker.DB()), dump(seqCo.Checker.DB()); a != b {
		t.Errorf("mirror diverged\npipelined:\n%s\nsequential:\n%s", a, b)
	}
	if a, b := mergedSites(t, sites), mergedSites(t, seqSites); a != b {
		t.Errorf("merged site stores diverged\npipelined:\n%s\nsequential:\n%s", a, b)
	}
}

// TestCheckFootprintKeepsWire: a check's footprint is the apply's reads
// without its write, and its Wire bit comes from those reads alone: a
// check that reads a remote relation may wait on a site to refresh it,
// and one that reads nothing never touches the wire — not even a check of
// +dept(7), whose apply publishes to dept's shard under the dist_sharded
// placement. Such a check is no wire task and takes a worker token.
func TestCheckFootprintKeepsWire(t *testing.T) {
	s, _, _ := shardedFixture(t, 2, 8, nil)
	defer s.Close()
	for _, u := range []store.Update{store.Ins("emp", relation.Ints(1, 6)), store.Ins("l", relation.Ints(2, 8))} {
		apply, check := s.footprintFor(&task{op: opApply, u: u}), s.footprintFor(&task{op: opCheck, u: u})
		if !apply.Wire || !check.Wire {
			t.Errorf("%s: apply Wire=%v check Wire=%v, want both (each refreshes what it reads)", u, apply.Wire, check.Wire)
		}
		if len(check.Writes) != 0 || len(check.Reads) == 0 || len(check.Reads) != len(apply.Reads) {
			t.Errorf("%s: check footprint %+v, want the apply's reads %v and no write", u, check, apply.Reads)
		}
	}
	if del := s.footprintFor(&task{op: opCheck, u: store.Del("emp", relation.Ints(1000, 0))}); del.Wire {
		t.Error("check of an emp delete is Wire: polarity decides it from nothing")
	}
	dept := store.Ins("dept", relation.Ints(7))
	if check := s.footprintFor(&task{op: opCheck, u: dept}); check.Wire || len(check.Reads) != 0 {
		t.Errorf("check of %s: %+v, want no reads and not Wire (it writes nothing)", dept, check)
	}
	if apply := s.footprintFor(&task{op: opApply, u: dept}); !apply.Wire {
		t.Errorf("apply of %s: %+v, want Wire (it publishes to a shard)", dept, apply)
	}
}

// TestQueueDepthBoundsBothArms: QueueDepth requests may wait beyond the
// ApplyWorkers being served, at one worker or more. Above one every
// request submits itself to a scheduler that never refuses; the count of
// requests admitted and unanswered is what sheds, at every width.
func TestQueueDepthBoundsBothArms(t *testing.T) {
	const depth, callers = 4, 200
	for _, workers := range []int{1, 4} {
		gate := make(chan struct{})
		s := New(pipelineFixture(t), Config{QueueDepth: depth, ApplyWorkers: workers, workerGate: gate})
		limit := depth + workers
		var wg sync.WaitGroup
		var busy, answered atomic.Int64
		for i := 0; i < callers; i++ {
			wg.Add(1)
			go func(i int64) {
				defer wg.Done()
				_, err := s.Check("probe", store.Ins("l", relation.Ints(1000+4*i, 1001+4*i)))
				var be *BusyError
				switch {
				case err == nil:
					answered.Add(1)
				case errors.As(err, &be) && be.Reason == ReasonQueueFull && be.RetryAfter > 0:
					busy.Add(1)
				default:
					t.Errorf("workers %d: %v", workers, err)
				}
			}(int64(i))
		}
		// Nothing is answered while the gate is shut: every caller is
		// either rejected or admitted and waiting.
		waitFor(t, "every caller to be admitted or rejected", func() bool {
			st := s.Stats()
			return st.Requests[EndpointCheck]+st.Rejections[ReasonQueueFull] == callers
		})
		st := s.Stats()
		if got := st.Requests[EndpointCheck]; got == 0 || got > int64(limit) {
			t.Errorf("workers %d: %d requests admitted with none answered, want 1..%d (QueueDepth %d + workers)", workers, got, limit, depth)
		}
		if st.SchedInflight > limit {
			t.Errorf("workers %d: scheduler holds %d tasks, want at most %d", workers, st.SchedInflight, limit)
		}
		close(gate)
		wg.Wait()
		if a, b := answered.Load(), busy.Load(); a != st.Requests[EndpointCheck] || a+b != callers {
			t.Errorf("workers %d: %d answered and %d rejected of %d callers, %d admitted", workers, a, b, callers, st.Requests[EndpointCheck])
		}
		if left := s.admitted.Load(); left != 0 {
			t.Errorf("workers %d: %d requests still counted as admitted after every answer", workers, left)
		}
		// Room again.
		if _, err := s.Check("probe", store.Ins("l", relation.Ints(1, 2))); err != nil {
			t.Errorf("workers %d: request after the burst: %v", workers, err)
		}
		s.Close()
	}
}

// waitingForWorker reports whether some goroutine is starting a scheduled
// task and blocked on the scheduler's worker tokens.
func waitingForWorker() bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range bytes.Split(buf, []byte("\n\n")) {
		if bytes.Contains(g, []byte("[chan send")) && bytes.Contains(g, []byte("sched.(*Scheduler).start(")) {
			return true
		}
	}
	return false
}

// TestWorkerWaitSpan: a traced request whose task was ready and waited
// for a worker says so — a worker.wait child span, and a row of that name
// in the trace summary — and one that got a worker at once does not.
func TestWorkerWaitSpan(t *testing.T) {
	reg := obs.NewRegistry()
	spans := obs.NewSpanTracer("serve", obs.NewTraceStore(16), 1)
	gate := make(chan struct{})
	s := New(pipelineFixture(t), Config{ApplyWorkers: 2, Metrics: reg, Spans: spans, workerGate: gate})
	busy := func() any { return reg.Snapshot()[`cc_sched_workers_busy{layer="serve"}`] }
	var tasks []*task
	submit := func(lo int64) {
		tk := &task{op: opApply, client: "wait", u: store.Ins("l", relation.Ints(lo, lo+1)),
			span: spans.StartRoot("req", obs.SpanContext{}), reply: make(chan taskResult, 1), enqueued: time.Now()}
		if err := s.submit(tk); err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, tk)
	}
	// Two independent applies take the two workers and stop at the gate;
	// the third is ready and finds none.
	submit(1000)
	submit(2000)
	waitFor(t, "two tasks to hold the two workers", func() bool { return busy() == int64(2) })
	submit(3000)
	// The third task was admitted when submit returned; its goroutine
	// then has to reach the worker tokens, and nothing but its stack says
	// when it waits there.
	waitFor(t, "the third task to wait for a worker", waitingForWorker)
	close(gate)
	for _, tk := range tasks {
		if res := <-tk.reply; res.err != nil {
			t.Fatal(res.err)
		}
		tk.span.End()
	}
	s.Close()
	for i, tk := range tasks {
		tr := spans.Store().Trace(tk.span.Context().TraceID)
		if tr == nil {
			t.Fatalf("request %d has no trace", i)
		}
		var names []string
		waited := false
		for _, sp := range tr.Spans {
			names = append(names, sp.Name)
			waited = waited || sp.Name == "worker.wait" && sp.Duration > 0
		}
		if want := i == 2; waited != want {
			t.Errorf("request %d: worker.wait span present = %v, want %v (spans %v)", i, waited, want, names)
		}
	}
	for _, row := range spans.Store().Summarize().Overall {
		if row.Name == "worker.wait" && row.Count == 1 {
			return
		}
	}
	t.Errorf("trace summary has no worker.wait row: %+v", spans.Store().Summarize().Overall)
}
