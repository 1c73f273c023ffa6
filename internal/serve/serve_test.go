package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/store"
)

// newTestChecker builds the D1 forbidden-interval fixture: l(0,10) and
// the constraint that no r point may land inside an l interval. +r(5)
// violates, +r(100) is safe.
func newTestChecker(t *testing.T, reg *obs.Registry) *core.Checker {
	t.Helper()
	db := store.New()
	if _, err := db.Insert("l", relation.Ints(0, 10)); err != nil {
		t.Fatal(err)
	}
	chk := core.New(db, core.Options{LocalRelations: []string{"l"}, Metrics: reg})
	if err := chk.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
		t.Fatal(err)
	}
	return chk
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestQueueFullReturnsBusy(t *testing.T) {
	gate := make(chan struct{})
	chk := newTestChecker(t, nil)
	s := New(chk, Config{QueueDepth: 1, workerGate: gate})
	defer func() {
		close(gate)
		s.Close()
	}()

	results := make(chan error, 2)
	go func() { _, err := s.Check("a", store.Ins("r", relation.Ints(100))); results <- err }()
	// The gate holds the first request at the turn; nothing waits for the
	// turn once it has taken it.
	waitFor(t, "worker to hold request 1", func() bool {
		return s.Stats().QueueDepth == 0 && s.requests[opCheck].Load() == 1
	})
	go func() { _, err := s.Check("a", store.Ins("r", relation.Ints(101))); results <- err }()
	waitFor(t, "request 2 to queue", func() bool { return s.Stats().QueueDepth == 1 })

	// Queue full: the third request must shed immediately.
	_, err := s.Check("a", store.Ins("r", relation.Ints(102)))
	var busy *BusyError
	if !errors.As(err, &busy) {
		t.Fatalf("expected BusyError, got %v", err)
	}
	if busy.Reason != ReasonQueueFull {
		t.Fatalf("reason = %q, want %q", busy.Reason, ReasonQueueFull)
	}
	if busy.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", busy.RetryAfter)
	}
	if got := s.Stats().Rejections[ReasonQueueFull]; got != 1 {
		t.Fatalf("queue_full rejections = %d, want 1", got)
	}

	// Draining the gate answers both held requests.
	gate <- struct{}{}
	gate <- struct{}{}
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("held request %d failed: %v", i, err)
		}
	}
}

func TestRateLimitsAreIndependentPerClient(t *testing.T) {
	chk := newTestChecker(t, nil)
	s := New(chk, Config{RatePerClient: 1, Burst: 1})
	defer s.Close()
	now := time.Now()
	s.clock = func() time.Time { return now } // freeze refill

	if _, err := s.Check("alice", store.Ins("r", relation.Ints(100))); err != nil {
		t.Fatalf("alice request 1: %v", err)
	}
	_, err := s.Check("alice", store.Ins("r", relation.Ints(100)))
	var busy *BusyError
	if !errors.As(err, &busy) || busy.Reason != ReasonRateLimited {
		t.Fatalf("alice request 2: want rate_limited BusyError, got %v", err)
	}
	if busy.RetryAfter <= 0 {
		t.Fatalf("RetryAfter = %v, want > 0", busy.RetryAfter)
	}
	// bob's bucket is untouched by alice's exhaustion.
	if _, err := s.Check("bob", store.Ins("r", relation.Ints(100))); err != nil {
		t.Fatalf("bob request 1: %v", err)
	}
	// Advancing the clock refills alice.
	now = now.Add(2 * time.Second)
	if _, err := s.Check("alice", store.Ins("r", relation.Ints(100))); err != nil {
		t.Fatalf("alice after refill: %v", err)
	}
}

// TestRateLimitForgetsRefilledClients: a bucket that has refilled admits
// exactly as a new one would, so it is not kept: ten thousand clients,
// each seen once and each refilled before the next arrives, leave a
// bucket or two behind, not ten thousand.
func TestRateLimitForgetsRefilledClients(t *testing.T) {
	s := New(newTestChecker(t, nil), Config{RatePerClient: 1, Burst: 1})
	defer s.Close()
	now := time.Now()
	s.clock = func() time.Time { return now }
	for i := 0; i < 10000; i++ {
		if _, err := s.Check(fmt.Sprintf("client-%d", i), store.Ins("r", relation.Ints(100))); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		now = now.Add(time.Second)
	}
	s.limMu.Lock()
	defer s.limMu.Unlock()
	if n := len(s.buckets); n > 2 {
		t.Fatalf("%d token buckets kept for 10000 refilled clients", n)
	}
}

func TestGracefulDrainAnswersQueuedRejectsNew(t *testing.T) {
	gate := make(chan struct{})
	chk := newTestChecker(t, nil)
	s := New(chk, Config{QueueDepth: 8, workerGate: gate})

	const held = 3
	results := make(chan error, held)
	for i := 0; i < held; i++ {
		v := int64(100 + i)
		go func() { _, err := s.Apply("a", store.Ins("r", relation.Ints(v))); results <- err }()
	}
	waitFor(t, "requests to queue", func() bool { return s.requests[opApply].Load() == held })

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	waitFor(t, "draining to begin", s.Draining)

	// New traffic is rejected while the drain is in progress.
	if _, err := s.Check("a", store.Ins("r", relation.Ints(200))); !errors.Is(err, ErrDraining) {
		t.Fatalf("expected ErrDraining, got %v", err)
	}
	if got := s.Stats().Rejections[ReasonDraining]; got != 1 {
		t.Fatalf("draining rejections = %d, want 1", got)
	}

	// Everything admitted before the drain still gets an answer.
	for i := 0; i < held; i++ {
		gate <- struct{}{}
	}
	for i := 0; i < held; i++ {
		if err := <-results; err != nil {
			t.Fatalf("drained request %d failed: %v", i, err)
		}
	}
	<-closed
	for i := int64(100); i < 100+held; i++ {
		if !chk.DB().Contains("r", relation.Ints(i)) {
			t.Fatalf("drained apply +r(%d) not in store", i)
		}
	}
}

// TestNewStartsNoGoroutine: a request is served on its caller's
// goroutine, so New starts none at any width, and once a request has been
// answered Close leaves none behind (above one worker the scheduler's
// parked goroutines end). The count may fall between the samples, as
// other tests' goroutines finish; it may not rise.
func TestNewStartsNoGoroutine(t *testing.T) {
	for _, workers := range []int{0, 1, 4} {
		chk := newTestChecker(t, nil)
		base := runtime.NumGoroutine()
		s := New(chk, Config{ApplyWorkers: workers})
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("workers %d: New started %d goroutines", workers, n-base)
		}
		if rep, err := s.Apply("a", store.Ins("r", relation.Ints(100))); err != nil || !rep.Applied {
			t.Fatalf("workers %d: rep=%+v err=%v", workers, rep, err)
		}
		s.Close()
		waitFor(t, "the server's goroutines to end", func() bool { return runtime.NumGoroutine() <= base })
	}
}

// TestCloseAnswersWaitingRequests: Close stops admitting at once and
// returns only after every request admitted before it has its verdict —
// the one the gate holds and those waiting behind it, for the turn at one
// worker and behind the held one's write of the same tuple above — and
// with their decision-log lines flushed. Closing again changes nothing.
func TestCloseAnswersWaitingRequests(t *testing.T) {
	const n = 4
	for _, workers := range []int{1, 4} {
		gate := make(chan struct{})
		chk := newTestChecker(t, nil)
		var log bytes.Buffer
		s := New(chk, Config{ApplyWorkers: workers, workerGate: gate, DecisionLog: &log})
		results := make(chan error, n)
		for i := 0; i < n; i++ {
			go func() { _, err := s.Apply("a", store.Ins("r", relation.Ints(100))); results <- err }()
		}
		waitFor(t, "every request to be admitted", func() bool { return s.requests[opApply].Load() == n })
		closed := make(chan struct{})
		go func() { s.Close(); close(closed) }()
		waitFor(t, "draining to begin", s.Draining)
		if _, err := s.Check("a", store.Ins("r", relation.Ints(101))); !errors.Is(err, ErrDraining) {
			t.Fatalf("workers %d: a request during the drain got %v, want ErrDraining", workers, err)
		}
		for i := 0; i < n; i++ {
			select {
			case <-closed:
				t.Fatalf("workers %d: Close returned with %d of %d requests unanswered", workers, n-i, n)
			default:
			}
			gate <- struct{}{}
		}
		<-closed
		if left, decided := s.admitted.Load(), chk.Stats().Updates; left != 0 || decided != n {
			t.Fatalf("workers %d: Close returned with %d requests unanswered and %d of %d decided", workers, left, decided, n)
		}
		if lines := strings.Count(log.String(), "\n"); lines != n {
			t.Fatalf("workers %d: %d decision-log lines after Close, want %d", workers, lines, n)
		}
		s.Close()
		for i := 0; i < n; i++ {
			if err := <-results; err != nil {
				t.Fatalf("workers %d: drained request: %v", workers, err)
			}
		}
		if _, err := s.Check("a", store.Ins("r", relation.Ints(101))); !errors.Is(err, ErrDraining) {
			t.Fatalf("workers %d: a request after Close got %v, want ErrDraining", workers, err)
		}
		if !chk.DB().Contains("r", relation.Ints(100)) {
			t.Fatalf("workers %d: the drained apply is not in the store", workers)
		}
	}
}

// slowWriter blocks every Write until released, simulating a sink that
// cannot keep up.
type slowWriter struct {
	mu      sync.Mutex
	buf     bytes.Buffer
	release chan struct{}
}

func (w *slowWriter) Write(p []byte) (int, error) {
	<-w.release
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.buf.Write(p)
}

func TestDecisionLogDropsUnderSlowSink(t *testing.T) {
	reg := obs.NewRegistry()
	sink := &slowWriter{release: make(chan struct{})}
	chk := newTestChecker(t, nil)
	s := New(chk, Config{DecisionLog: sink, DecisionLogDepth: 1, Metrics: reg})

	const n = 10
	for i := int64(0); i < n; i++ {
		if _, err := s.Apply("a", store.Ins("r", relation.Ints(100+i))); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	// With the writer stuck on record 1 and a one-record buffer, most of
	// the stream must have been dropped rather than stalling the worker.
	drops := s.Stats().DecisionLogDrops
	if drops < n-2 {
		t.Fatalf("decision-log drops = %d, want >= %d", drops, n-2)
	}
	snap := reg.Snapshot()
	if got := snap["cc_serve_decision_log_drops_total"]; got != drops {
		t.Fatalf("cc_serve_decision_log_drops_total = %v, want %d", got, drops)
	}

	close(sink.release) // un-stick the sink, then flush via Close
	s.Close()
	sink.mu.Lock()
	defer sink.mu.Unlock()
	var lines int
	sc := bufio.NewScanner(&sink.buf)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if rec["op"] != "apply" || rec["applied"] != true {
			t.Fatalf("unexpected record %v", rec)
		}
		if !strings.HasPrefix(rec["update"].(string), "+r(") {
			t.Fatalf("unexpected update %v", rec["update"])
		}
		lines++
	}
	if int64(lines)+drops != n {
		t.Fatalf("written %d + dropped %d != %d issued", lines, drops, n)
	}
}

func TestCheckDecidesWithoutApplying(t *testing.T) {
	chk := newTestChecker(t, nil)
	s := New(chk, Config{})
	defer s.Close()

	rep, err := s.Check("a", store.Ins("r", relation.Ints(100)))
	if err != nil || !rep.Applied {
		t.Fatalf("safe check: applied=%v err=%v", rep.Applied, err)
	}
	if chk.DB().Contains("r", relation.Ints(100)) {
		t.Fatal("check left the update applied")
	}
	rep, err = s.Check("a", store.Ins("r", relation.Ints(5)))
	if err != nil || rep.Applied {
		t.Fatalf("violating check: applied=%v err=%v", rep.Applied, err)
	}
	if vs := rep.Violations(); len(vs) != 1 || vs[0] != "fi" {
		t.Fatalf("violations = %v, want [fi]", vs)
	}
	// A checked delete of an existing tuple is restored too.
	if _, err := s.Apply("a", store.Ins("r", relation.Ints(200))); err != nil {
		t.Fatal(err)
	}
	if rep, err = s.Check("a", store.Del("r", relation.Ints(200))); err != nil || !rep.Applied {
		t.Fatalf("delete check: applied=%v err=%v", rep.Applied, err)
	}
	if !chk.DB().Contains("r", relation.Ints(200)) {
		t.Fatal("check left the delete applied")
	}
}

func TestBatchAtomicVsIndependent(t *testing.T) {
	chk := newTestChecker(t, nil)
	s := New(chk, Config{})
	defer s.Close()

	// Atomic: the violating member rolls the whole batch back.
	out, err := s.Batch("a", []store.Update{
		store.Ins("r", relation.Ints(100)),
		store.Ins("r", relation.Ints(5)),
	}, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.Applied != 0 || out.FailedAt != 1 {
		t.Fatalf("atomic: applied=%d failedAt=%d, want 0/1", out.Applied, out.FailedAt)
	}
	if chk.DB().Contains("r", relation.Ints(100)) {
		t.Fatal("atomic batch left +r(100) applied after rollback")
	}
	// Independent: the safe member stays.
	out, err = s.Batch("a", []store.Update{
		store.Ins("r", relation.Ints(100)),
		store.Ins("r", relation.Ints(5)),
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Applied != 1 || out.FailedAt != -1 {
		t.Fatalf("independent: applied=%d failedAt=%d, want 1/-1", out.Applied, out.FailedAt)
	}
	if !chk.DB().Contains("r", relation.Ints(100)) {
		t.Fatal("independent batch lost +r(100)")
	}
}

func TestBatchTooLarge(t *testing.T) {
	chk := newTestChecker(t, nil)
	s := New(chk, Config{MaxBatch: 2})
	defer s.Close()
	us := []store.Update{
		store.Ins("r", relation.Ints(100)),
		store.Ins("r", relation.Ints(101)),
		store.Ins("r", relation.Ints(102)),
	}
	if _, err := s.Batch("a", us, false); !errors.Is(err, ErrBatchTooLarge) {
		t.Fatalf("expected ErrBatchTooLarge, got %v", err)
	}
}

func TestServeMetricsAndStats(t *testing.T) {
	reg := obs.NewRegistry()
	chk := newTestChecker(t, reg)
	s := New(chk, Config{Metrics: reg})
	defer s.Close()

	if _, err := s.Apply("a", store.Ins("r", relation.Ints(100))); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Check("a", store.Ins("r", relation.Ints(5))); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Requests[EndpointApply] != 1 || st.Requests[EndpointCheck] != 1 {
		t.Fatalf("stats requests = %v", st.Requests)
	}
	var expo strings.Builder
	reg.WritePrometheus(&expo)
	text := expo.String()
	for _, want := range []string{
		`cc_serve_requests_total{endpoint="apply"} 1`,
		`cc_serve_requests_total{endpoint="check"} 1`,
		`cc_serve_request_seconds_count{endpoint="check",verdict="violation"} 1`,
		"cc_serve_queue_depth",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	cs, err := s.CheckerStats()
	if err != nil {
		t.Fatal(err)
	}
	if cs.Updates != 2 {
		t.Fatalf("checker updates = %d, want 2", cs.Updates)
	}
}

// TestConcurrentClients hammers one server from many goroutines under
// -race: the checker itself must only ever be touched by the request
// holding the turn.
func TestConcurrentClients(t *testing.T) {
	chk := newTestChecker(t, nil)
	s := New(chk, Config{QueueDepth: 64})
	defer s.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				u := store.Ins("r", relation.Ints(int64(1000+g*10+i)))
				if _, err := s.Apply(fmt.Sprintf("client-%d", g), u); err != nil {
					var busy *BusyError
					if !errors.As(err, &busy) {
						errs <- err
					}
				}
				if _, err := s.Check("probe", store.Ins("r", relation.Ints(5))); err != nil {
					var busy *BusyError
					if !errors.As(err, &busy) {
						errs <- err
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var _ io.Writer = (*slowWriter)(nil)
