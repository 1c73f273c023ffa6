package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Options configure a Scheduler.
type Options struct {
	// Workers is how many tasks may compute at once; <= 0 means
	// GOMAXPROCS. Waiting on a site is not computing: a task whose
	// footprint is Wire runs without counting against it.
	Workers int
	// Metrics receives scheduler counters; nil disables instrumentation.
	Metrics *Metrics
}

// Info is handed to a task when it starts.
type Info struct {
	// ConflictWait is the time from admission until the last conflicting
	// earlier task finished (0 for a task admitted ready).
	ConflictWait time.Duration
	// WorkerWait is the time the ready task then waited for one of the
	// Workers tokens (0 for a Wire task, which takes none).
	WorkerWait time.Duration
	// Conflicts is the number of in-flight tasks the task had to wait
	// for at admission (0 for an immediately dispatchable task).
	Conflicts int
	// Cause is the conflict with the earliest-admitted of those tasks —
	// why the task stalled (Kind CauseNone when it did not).
	Cause Cause
}

// Stats is a point-in-time snapshot of scheduler accounting.
type Stats struct {
	// Workers is the number of tasks that may compute at once.
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
// the scheduler cannot deadlock.
type node struct {
	run       func(Info)
	fp        Footprint
	admitted  time.Time
	ready     time.Time // when deps reached 0
	deps      int       // unfinished earlier conflicting tasks
	conflicts int       // deps at admission (deps drains to 0 before dispatch)
	cause     Cause     // the first of them
	waiters   []*node   // later tasks waiting on this one
	done      bool
}

// Scheduler runs submitted tasks such that conflicting tasks (per
// Footprint.Conflicts) run serially in admission order while independent
// tasks run concurrently. Every task gets its own goroutine once its
// dependencies have cleared; one that only computes (its footprint is not
// Wire) holds one of Workers tokens while it runs, one that may wait on a
// site holds none — so a decision local data settles never queues behind
// somebody else's round trip. Submit is safe for concurrent use, and the
// execution order it guarantees — every pair of conflicting tasks runs
// in admission order — makes any concurrent schedule equivalent to the
// sequential one.
type Scheduler struct {
	mu       sync.Mutex
	idle     *sync.Cond // pending reached 0
	inflight []*node    // admission order; done nodes compacted on submit
	pending  int        // admitted, not yet finished
	closed   bool

	// tokens holds one element per computing task.
	tokens chan struct{}

	tasks          atomic.Int64
	conflictStalls atomic.Int64

	met *Metrics
}

// New returns a scheduler admitting Workers computing tasks at once.
func New(opts Options) *Scheduler {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{tokens: make(chan struct{}, w), met: opts.Metrics}
	s.idle = sync.NewCond(&s.mu)
	return s
}

// Workers returns how many tasks may compute at once.
func (s *Scheduler) Workers() int { return cap(s.tokens) }

// Submit admits a task with the given footprint. The task runs as soon
// as every earlier-admitted conflicting task has finished; independent
// tasks run concurrently. Submit never blocks on running tasks — bounding
// how many are admitted is the caller's job. Submit after Close panics.
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
	n.admitted = time.Now()
	n.conflicts = n.deps
	n.ready = n.admitted // unless it has to wait: complete says when
	s.mu.Unlock()
	s.tasks.Add(1)
	if n.conflicts > 0 {
		s.conflictStalls.Add(1)
	}
	if s.met != nil {
		s.met.observeSubmit(n.admitted.Sub(scan), n.cause.Kind)
		s.met.Inflight.Add(1)
	}
	if n.conflicts == 0 {
		go s.start(n)
	}
}

// start runs a ready task on its own goroutine, inside a token unless
// the task may wait on a site, and retires it.
func (s *Scheduler) start(n *node) {
	info := Info{ConflictWait: n.ready.Sub(n.admitted), Conflicts: n.conflicts, Cause: n.cause}
	wire := n.fp.Wire
	if !wire {
		select {
		case s.tokens <- struct{}{}:
		default:
			// All taken. A full channel hands a freed slot to its longest
			// blocked sender, so tasks compute in the order they got here.
			s.tokens <- struct{}{}
			info.WorkerWait = time.Since(n.ready)
		}
	}
	if s.met != nil {
		s.met.observeStart(info, wire)
	}
	n.run(info)
	if !wire {
		<-s.tokens
	}
	if s.met != nil {
		s.met.observeDone(wire)
	}
	s.complete(n)
}

// complete retires a finished task: its waiters lose a dependency and
// start when their last one clears.
func (s *Scheduler) complete(n *node) {
	s.mu.Lock()
	n.done = true
	s.pending--
	for _, w := range n.waiters {
		w.deps--
		if w.deps == 0 {
			w.ready = time.Now()
			go s.start(w)
		}
	}
	n.waiters = nil
	if s.pending == 0 {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
}

// Drain blocks until every task admitted so far has finished. Tasks may
// be submitted concurrently with Drain; it returns once the scheduler is
// momentarily empty.
func (s *Scheduler) Drain() {
	s.mu.Lock()
	for s.pending > 0 {
		s.idle.Wait()
	}
	s.mu.Unlock()
}

// Close drains the scheduler. No Submit may follow.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.Drain()
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	inflight := s.pending
	s.mu.Unlock()
	return Stats{
		Workers:        cap(s.tokens),
		Tasks:          s.tasks.Load(),
		ConflictStalls: s.conflictStalls.Load(),
		Inflight:       inflight,
	}
}
