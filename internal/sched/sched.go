package sched

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relation"
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
//
// Nodes are recycled. A done node leaves inflight only at Submit's
// compaction, when nothing else refers to it; it goes on the free list
// with its arrays kept — the footprint's, whose contents Submit
// overwrites, and waiters, which complete has emptied.
type node struct {
	run       func(Info)
	fp        Footprint         // the caller's, copied into arrays the node owns
	cols      []relation.Handle // the backing of fp.Writes' Cols
	admitted  time.Time
	ready     time.Time // when deps reached 0
	deps      int       // unfinished earlier conflicting tasks
	conflicts int       // deps at admission (deps drains to 0 before dispatch)
	cause     Cause     // the first of them
	waiters   []*node   // later tasks waiting on this one
	done      bool
}

// own makes the node task fp's: it copies fp into the node's arrays, so
// that the caller may reuse its own once Submit returns.
func (n *node) own(fp Footprint) {
	n.fp.Barrier, n.fp.Wire = fp.Barrier, fp.Wire
	n.fp.Reads = append(n.fp.Reads[:0], fp.Reads...)
	n.fp.Writes = append(n.fp.Writes[:0], fp.Writes...)
	k := 0
	for _, w := range fp.Writes {
		k += len(w.Cols)
	}
	n.cols = slices.Grow(n.cols[:0], k) // one array: no write's Cols moves
	for i := range n.fp.Writes {
		w := &n.fp.Writes[i]
		k := len(n.cols)
		n.cols = append(n.cols, w.Cols...)
		w.Cols = n.cols[k:len(n.cols):len(n.cols)]
	}
}

// Scheduler runs submitted tasks such that conflicting tasks (per
// Footprint.Conflicts) run serially in admission order while independent
// tasks run concurrently. Every task gets a goroutine, a parked one when
// one is idle, once its dependencies have cleared; one that only computes
// (its footprint is not Wire) holds one of Workers tokens while it runs,
// one that may wait on a site holds none — so a decision local data
// settles never queues behind somebody else's round trip. Submit is safe
// for concurrent use, and the execution order it guarantees — every pair
// of conflicting tasks runs in admission order — makes any concurrent
// schedule equivalent to the sequential one.
//
// A goroutine whose task is done parks for the next ready task, unless
// 8 × Workers already are; then it exits. A reused goroutine brings the
// stack its earlier tasks grew, where a new one would grow it again.
type Scheduler struct {
	mu       sync.Mutex
	idle     *sync.Cond // pending reached 0
	inflight []*node    // admission order; done nodes compacted on submit
	free     []*node    // compacted nodes, for Submit to reuse
	pending  int        // admitted, not yet finished
	closed   bool
	// parked holds the hand-off channel of every parked goroutine, the
	// latest last.
	parked []chan *node

	// tokens holds one element per computing task.
	tokens chan struct{}

	// tasks counts submissions; stalls counts those admitted behind a
	// conflicting task, by the kind of the first conflict (CauseNone
	// unused), and Stats.ConflictStalls is their sum.
	tasks  atomic.Int64
	stalls [CauseWholeRead + 1]atomic.Int64

	met *Metrics
}

// New returns a scheduler admitting Workers computing tasks at once. It
// starts no goroutine: the first tasks do.
func New(opts Options) *Scheduler {
	w := opts.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{tokens: make(chan struct{}, w), met: opts.Metrics}
	s.idle = sync.NewCond(&s.mu)
	if s.met != nil {
		s.met.register(s)
	}
	return s
}

// Workers returns how many tasks may compute at once.
func (s *Scheduler) Workers() int { return cap(s.tokens) }

// maxParked is how many goroutines may wait for a task at once. Tasks on
// the wire are not bounded by Workers, so more than Workers may run at
// once: behind a coordinator at 8 workers, with batches split into
// members, about 60 do. At 2 × Workers one request in ten still started a
// goroutine, whose stack then grew, at 8 × almost none did.
func (s *Scheduler) maxParked() int { return 8 * cap(s.tokens) }

// Submit admits a task with the given footprint, which it copies: the
// caller may reuse fp's arrays once Submit returns. The task runs as soon
// as every earlier-admitted conflicting task has finished; independent
// tasks run concurrently. Submit never blocks on running tasks — bounding
// how many are admitted is the caller's job. Submit after Close panics.
func (s *Scheduler) Submit(fp Footprint, run func(Info)) {
	scan := time.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		panic("sched: Submit after Close")
	}
	var n *node
	if k := len(s.free); k > 0 {
		n, s.free = s.free[k-1], s.free[:k-1]
	} else {
		n = new(node)
	}
	n.run = run
	n.own(fp)
	live := s.inflight[:0]
	for _, m := range s.inflight {
		if m.done {
			s.recycle(m)
			continue
		}
		live = append(live, m)
		if c := m.fp.Conflict(n.fp); c.Kind != CauseNone {
			m.waiters = append(m.waiters, n)
			if n.deps == 0 {
				n.cause = c
			}
			n.deps++
		}
	}
	s.inflight = append(live, n)
	s.pending++
	admitted, conflicts, cause := time.Now(), n.deps, n.cause.Kind
	n.admitted = admitted
	n.conflicts = conflicts
	n.ready = admitted // unless it has to wait: complete says when
	var c chan *node
	if conflicts == 0 {
		c = s.takeParked()
	}
	s.mu.Unlock()
	if conflicts == 0 {
		// Outside the lock: waking a goroutine may wake a processor too.
		s.dispatch(n, c)
	}
	// n is not ours past here: it may run, finish and be recycled.
	s.tasks.Add(1)
	if cause != CauseNone {
		s.stalls[cause].Add(1)
	}
	if s.met != nil {
		s.met.Footprint.Observe(admitted.Sub(scan).Seconds())
	}
}

// recycle clears a compacted node for reuse, keeping its arrays. Called
// with s.mu held.
func (s *Scheduler) recycle(n *node) {
	*n = node{
		fp:      Footprint{Writes: n.fp.Writes[:0], Reads: n.fp.Reads[:0]},
		cols:    n.cols[:0],
		waiters: n.waiters[:0],
	}
	s.free = append(s.free, n)
}

// takeParked unparks the latest parked goroutine and returns its
// channel, or nil when none is parked. Called with s.mu held.
func (s *Scheduler) takeParked() chan *node {
	k := len(s.parked)
	if k == 0 {
		return nil
	}
	c := s.parked[k-1]
	s.parked = s.parked[:k-1]
	return c
}

// dispatch hands a ready task to the goroutine takeParked unparked, c, or
// to a new goroutine when c is nil. It never blocks: an unparked
// goroutine's channel is empty, with room for one.
func (s *Scheduler) dispatch(n *node, c chan *node) {
	if c == nil {
		go s.work(n)
		return
	}
	c <- n
}

// work is a scheduler goroutine: it runs n, then parks for the next task
// it is handed, until it may not park or Close wakes it with nil.
func (s *Scheduler) work(n *node) {
	next := make(chan *node, 1)
	for n != nil {
		s.start(n)
		if !s.complete(n, next) {
			return
		}
		n = <-next
	}
}

// start runs a ready task on a goroutine, a parked one when idle, inside
// a token unless the task may wait on a site.
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
}

// complete retires a finished task: its waiters lose a dependency and are
// dispatched when their last one clears. The goroutine that ran the task
// parks first, when it may, on next — so the first waiter made ready
// goes to it. complete reports whether it parked.
func (s *Scheduler) complete(n *node, next chan *node) (parked bool) {
	s.mu.Lock()
	n.done = true
	n.run = nil
	s.pending--
	if !s.closed && len(s.parked) < s.maxParked() {
		s.parked = append(s.parked, next)
		parked = true
	}
	for _, w := range n.waiters {
		w.deps--
		if w.deps == 0 {
			w.ready = time.Now()
			s.dispatch(w, s.takeParked())
		}
	}
	clear(n.waiters)
	n.waiters = n.waiters[:0]
	if s.pending == 0 {
		s.idle.Broadcast()
	}
	s.mu.Unlock()
	return parked
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

// Close drains the scheduler and ends its parked goroutines; no
// goroutine parks after it. No Submit may follow. Closing twice is
// harmless.
func (s *Scheduler) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	s.Drain()
	s.mu.Lock()
	for _, c := range s.parked {
		c <- nil
	}
	s.parked = nil
	s.mu.Unlock()
}

// Stats snapshots the scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	inflight := s.pending
	s.mu.Unlock()
	st := Stats{Workers: cap(s.tokens), Tasks: s.tasks.Load(), Inflight: inflight}
	for k := CauseBarrier; k <= CauseWholeRead; k++ {
		st.ConflictStalls += s.stalls[k].Load()
	}
	return st
}
