package serve

import (
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/sched"
)

// This file is the pipelined arm of the server (Config.ApplyWorkers >
// 1): instead of one worker goroutine draining the queue inline, a
// dispatcher footprints every task and submits it to the conflict-aware
// scheduler. The scheduler guarantees that conflicting tasks run in
// admission order, so the arm answers every request with the same
// verdict — and leaves the store in the same final state — as the
// sequential arm would for the same admitted stream; only the
// interleaving of *independent* requests (and therefore throughput)
// changes. One semantic caveat is documented on submitBatch.

// dispatcher drains the queue, turning each task into one scheduler
// submission (non-atomic batches become one submission per update).
// Submit never blocks, so a request's queue.wait ends here and what it
// waits for afterwards is named by the scheduler (sched.wait,
// worker.wait); what bounds the tasks the scheduler holds is admission
// (enqueue). When Close closes the queue it drains the scheduler,
// preserving the answer-everything-queued guarantee.
func (s *Server) dispatcher() {
	defer close(s.workerDone)
	for t := range s.queue {
		t := t
		if t.span != nil {
			s.cfg.Spans.RecordChild(t.span, "queue.wait", t.enqueued, time.Since(t.enqueued), nil, "")
		}
		if t.op == opBatch && !t.atomic {
			s.submitBatch(t)
			continue
		}
		s.sched.Submit(s.footprintFor(t), func(info sched.Info) { s.runTask(t, info) })
	}
	s.sched.Close()
}

// footprintFor derives the scheduler footprint of one task. A check
// writes nothing, so its footprint is the update's minus the write: it
// waits for, and holds back, only writes into what it reads — not other
// checks, nor a write of its own tuple, which its verdict does not depend
// on — and it keeps the rest (Wire: it refreshes what it reads). Stats
// is a barrier so the snapshot reflects a quiescent backend, exactly like
// the sequential arm's queue position did.
func (s *Server) footprintFor(t *task) sched.Footprint {
	switch t.op {
	case opCheck:
		fp := s.fpb.Footprints().Update(t.u)
		fp.Writes = nil
		return fp
	case opApply:
		return s.fpb.Footprints().Update(t.u)
	case opBatch: // atomic: one all-or-nothing task
		return s.fpb.Footprints().Batch(t.us)
	}
	return sched.Barrier()
}

// runTask executes one scheduled task — the pipelined counterpart of
// the worker loop body. The span bridge is single-flight by design, so
// the checker runs untraced here; requests instead carry a sched.wait
// child span whenever the task stalled behind a conflicting one and a
// worker.wait one whenever it then waited for a worker token.
func (s *Server) runTask(t *task, info sched.Info) {
	if s.cfg.workerGate != nil {
		<-s.cfg.workerGate
	}
	if s.met != nil {
		s.met.queueDepth.Set(int64(len(s.queue)))
	}
	start := time.Now()
	var decide *obs.Span
	if t.span != nil {
		ready := start.Add(-info.WorkerWait)
		if info.Conflicts > 0 {
			s.cfg.Spans.RecordChild(t.span, "sched.wait", ready.Add(-info.ConflictWait), info.ConflictWait, stallAttrs(info), "")
		}
		if info.WorkerWait > 0 {
			s.cfg.Spans.RecordChild(t.span, "worker.wait", ready, info.WorkerWait, nil, "")
		}
		if t.op != opStats {
			decide = s.cfg.Spans.StartChild(t.span, "decide")
		}
	}
	var res taskResult
	switch t.op {
	case opCheck:
		res.rep, res.err = s.chk.Check(t.u)
	case opApply:
		res.rep, res.err = s.chk.Apply(t.u)
	case opBatch:
		res.batch, res.err = s.runBatch(t.us, t.atomic)
	case opStats:
		res.stats = s.chk.Stats()
	}
	if decide != nil {
		if res.err != nil {
			decide.SetError(res.err.Error())
		}
		decide.End()
	}
	dur := time.Since(start)
	s.observeEWMA(dur)
	if t.op != opStats {
		s.logTask(t, res, dur)
	}
	s.answer(t, res)
}

// stallAttrs describes a stalled task on its sched.wait span: how many
// in-flight tasks it waited for and what the first of them held — the
// reason without the key value (so the trace summary can group on it),
// and the value of a keyed read beside it.
func stallAttrs(info sched.Info) map[string]string {
	attrs := map[string]string{
		"conflicts": strconv.Itoa(info.Conflicts),
		"reason":    info.Cause.Reason(),
	}
	if info.Cause.Kind == sched.CauseKeyedRead {
		attrs["value"] = relation.InternedValue(info.Cause.Key).String()
	}
	return attrs
}

// submitBatch decomposes a non-atomic batch into one scheduler task per
// update, so independent updates of the same batch pipeline like
// independent requests; the reply is assembled by whichever task
// finishes last. Verdicts and final state match the sequential arm for
// error-free streams; the one divergence is a backend *error* (not a
// violation) mid-batch, after which the sequential arm stops attempting
// the remaining updates while this arm has already dispatched them —
// the outcome still reports the first error at its index, and every
// update's fate is in the decision log either way.
func (s *Server) submitBatch(t *task) {
	n := len(t.us)
	if n == 0 {
		s.answer(t, taskResult{batch: BatchOutcome{FailedAt: -1}})
		return
	}
	start := time.Now()
	reports := make([]core.Report, n)
	errs := make([]error, n)
	var remaining atomic.Int64
	remaining.Store(int64(n))
	ix := s.fpb.Footprints()
	for i, u := range t.us {
		i, u := i, u
		s.sched.Submit(ix.Update(u), func(sched.Info) {
			if s.cfg.workerGate != nil {
				<-s.cfg.workerGate
			}
			reports[i], errs[i] = s.chk.Apply(u)
			if remaining.Add(-1) == 0 {
				s.finishBatch(t, reports, errs, start)
			}
		})
	}
}

// finishBatch assembles the non-atomic batch outcome in request order —
// identical aggregation to the sequential loop — and replies.
func (s *Server) finishBatch(t *task, reports []core.Report, errs []error, start time.Time) {
	var res taskResult
	res.batch = BatchOutcome{FailedAt: -1}
	for i := range reports {
		if errs[i] != nil {
			res.err = errs[i]
			break
		}
		res.batch.Reports = append(res.batch.Reports, reports[i])
		if reports[i].Applied {
			res.batch.Applied++
		}
	}
	dur := time.Since(start)
	if t.span != nil {
		s.cfg.Spans.RecordChild(t.span, "decide", start, dur,
			map[string]string{"batch": strconv.Itoa(len(t.us))}, "")
	}
	s.observeEWMA(dur)
	s.logTask(t, res, dur)
	s.answer(t, res)
}
