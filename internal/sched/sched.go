package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Options configure a Scheduler.
type Options struct {
	// Workers is the apply-pool width; <= 0 means GOMAXPROCS.
	Workers int
	// Metrics receives scheduler counters; nil disables instrumentation.
	Metrics *Metrics
}

// Info is handed to a task when it is dispatched.
type Info struct {
	// Wait is the time the task spent admitted but not running (conflict
	// stalls plus ready-queue wait under saturation).
	Wait time.Duration
	// Conflicts is the number of in-flight tasks the task had to wait
	// for at admission (0 for an immediately dispatchable task).
	Conflicts int
	// Cause is the conflict with the earliest-admitted of those tasks —
	// why the task stalled (Kind CauseNone when it did not).
	Cause Cause
}

// Stats is a point-in-time snapshot of scheduler accounting.
type Stats struct {
	// Workers is the pool width.
	Workers int
	// Tasks counts submissions.
	Tasks int64
	// ConflictStalls counts submissions that had to wait for at least
	// one conflicting in-flight task.
	ConflictStalls int64
	// Inflight is the number of admitted, not yet finished tasks.
	Inflight int
}

// node is one admitted task in the dependency graph. Edges always point
// from an earlier admission to a later one, so the graph is acyclic and
// the pool cannot deadlock.
type node struct {
	run       func(Info)
	fp        Footprint
	enqueued  time.Time
	deps      int     // unfinished earlier conflicting tasks
	conflicts int     // deps at admission (deps drains to 0 before dispatch)
	cause     Cause   // the first of them
	waiters   []*node // later tasks waiting on this one
	done      bool
}

// Scheduler dispatches submitted tasks across a worker pool such that
// conflicting tasks (per Footprint.Conflicts) run serially in admission
// order while independent tasks run concurrently. Submit is safe for
// concurrent use, and the execution order it guarantees — every pair of
// conflicting tasks runs in admission order — makes any concurrent
// schedule equivalent to the sequential one.
type Scheduler struct {
	mu       sync.Mutex
	cond     *sync.Cond
	inflight []*node // admission order; done nodes compacted on submit
	ready    []*node // FIFO dispatch queue
	pending  int     // admitted, not yet finished
	closed   bool

	workers        int
	busy           atomic.Int64
	tasks          atomic.Int64
	conflictStalls atomic.Int64

	met *Metrics
	wg  sync.WaitGroup
}

// New starts a scheduler with its worker pool.
func New(opts Options) *Scheduler {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{workers: w, met: opts.Metrics}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(w)
	for i := 0; i < w; i++ {
		go s.worker()
	}
	return s
}

// Workers returns the pool width.
func (s *Scheduler) Workers() int { return s.workers }

// Submit admits a task with the given footprint. The task runs as soon
// as every earlier-admitted conflicting task has finished; independent
// tasks run concurrently. Submit after Close panics.
func (s *Scheduler) Submit(fp Footprint, run func(Info)) {
	n := &node{run: run, fp: fp}
	scan := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic("sched: Submit after Close")
	}
	live := s.inflight[:0]
	for _, m := range s.inflight {
		if m.done {
			continue
		}
		live = append(live, m)
		if c := m.fp.Conflict(fp); c.Kind != CauseNone {
			m.waiters = append(m.waiters, n)
			if n.deps == 0 {
				n.cause = c
			}
			n.deps++
		}
	}
	s.inflight = append(live, n)
	s.pending++
	n.enqueued = time.Now()
	n.conflicts = n.deps
	if n.deps == 0 {
		s.ready = append(s.ready, n)
	}
	s.mu.Unlock()
	s.tasks.Add(1)
	if n.conflicts > 0 {
		s.conflictStalls.Add(1)
	}
	if s.met != nil {
		s.met.observeSubmit(n.enqueued.Sub(scan), n.cause.Kind)
		s.met.Inflight.Add(1)
	}
	s.cond.Broadcast()
}

// worker dispatches ready tasks until Close drains the scheduler.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		// After Close, a worker may only exit once no task can become
		// ready anymore: pending covers running tasks and their waiters
		// alike, and every completion broadcasts.
		for len(s.ready) == 0 && !(s.closed && s.pending == 0) {
			s.cond.Wait()
		}
		if len(s.ready) == 0 {
			s.mu.Unlock()
			return
		}
		n := s.ready[0]
		s.ready = s.ready[1:]
		s.mu.Unlock()

		s.busy.Add(1)
		if s.met != nil {
			s.met.WorkersBusy.Add(1)
		}
		wait := time.Since(n.enqueued)
		if s.met != nil {
			s.met.Wait.Observe(wait.Seconds())
		}
		n.run(Info{Wait: wait, Conflicts: n.conflicts, Cause: n.cause})
		s.busy.Add(-1)
		if s.met != nil {
			s.met.WorkersBusy.Add(-1)
			s.met.Inflight.Add(-1)
		}
		s.complete(n)
	}
}

// complete retires a finished task: its waiters lose a dependency and
// become ready when their last one clears.
func (s *Scheduler) complete(n *node) {
	s.mu.Lock()
	n.done = true
	s.pending--
	for _, w := range n.waiters {
		w.deps--
		if w.deps == 0 {
			s.ready = append(s.ready, w)
		}
	}
	n.waiters = nil
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Drain blocks until every task admitted so far has finished. Tasks may
// be submitted concurrently with Drain; it returns once the scheduler is
// momentarily empty.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	for s.pending > 0 {
		s.cond.Wait()
	}
	s.mu.Unlock()
}

// Close drains the scheduler and stops the worker pool. No Submit may
// follow.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.cond.Broadcast()
	s.wg.Wait()
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	inflight := s.pending
	s.mu.Unlock()
	return Stats{
		Workers:        s.workers,
		Tasks:          s.tasks.Load(),
		ConflictStalls: s.conflictStalls.Load(),
		Inflight:       inflight,
	}
}
