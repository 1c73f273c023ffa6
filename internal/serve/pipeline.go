package serve

import (
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/sched"
)

// This file is what a request does instead of taking the turn when more
// than one apply worker serves (Config.ApplyWorkers > 1): it footprints
// its task and submits it to the conflict-aware scheduler. The
// scheduler guarantees that conflicting tasks run in admission order, so
// every request gets the same verdict — and the store the same final
// state — as at one worker for the same admitted stream; only the
// interleaving of *independent* requests (and therefore throughput)
// changes. One semantic caveat is documented on submitBatch.

// footprintFor derives the scheduler footprint of one task. A check
// writes nothing, so its footprint is its reads alone (Footprints.Check).
// Stats is a barrier so the snapshot reflects a quiescent backend,
// exactly like the turn at one worker. The footprint is built in the
// task's scratch and valid until the next call: Submit copies it.
func (s *Server) footprintFor(t *task) sched.Footprint {
	t.fp = sched.Footprint{Writes: t.fp.Writes[:0], Reads: t.fp.Reads[:0]}
	ix := s.fpb.Footprints()
	switch t.op {
	case opCheck:
		t.fp = ix.AppendCheck(t.fp, t.u)
	case opApply:
		t.fp = ix.AppendUpdate(t.fp, t.u)
	case opBatch: // atomic: one all-or-nothing task
		t.fp = ix.AppendBatch(t.fp, t.us)
	default:
		t.fp.Barrier = true
	}
	return t.fp
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
// independent requests; whichever task finishes last assembles the
// outcome (batchOutcome, as at one worker) and replies. Verdicts and
// final state match one worker's for error-free streams; the one
// divergence is a backend *error* (not a violation) mid-batch, after
// which one worker stops attempting the remaining updates while this
// path has already submitted them — the outcome still reports the first
// error at its index, and every update's fate is in the decision log
// either way.
func (s *Server) submitBatch(t *task) {
	n := len(t.us)
	if n == 0 {
		s.answer(t, taskResult{batch: BatchOutcome{FailedAt: -1}})
		return
	}
	b := batchRuns.Get().(*batchRun)
	b.srv, b.t, b.start, b.reports = s, t, time.Now(), make([]core.Report, n)
	b.errs = slices.Grow(b.errs[:0], n)[:n]
	for i := len(b.runs); i < n; i++ {
		b.runs = append(b.runs, func(sched.Info) { b.srv.runMember(b, i) })
	}
	b.remaining.Store(int64(n))
	ix := s.fpb.Footprints()
	for i, u := range t.us {
		t.fp = ix.AppendUpdate(sched.Footprint{Writes: t.fp.Writes[:0], Reads: t.fp.Reads[:0]}, u)
		s.sched.Submit(t.fp, b.runs[i])
	}
}

// batchRun is a non-atomic batch decomposed by submitBatch: its server
// and task, when it was submitted, and its members' outcomes. The reports
// are the reply's; the rest — the error slots and the function that runs
// each member — is kept in batchRuns for the next batch, which the member
// that replies puts it back for once no other member touches it.
type batchRun struct {
	srv       *Server
	t         *task
	start     time.Time
	reports   []core.Report
	errs      []error
	runs      []func(sched.Info)
	remaining atomic.Int64
}

var batchRuns = sync.Pool{New: func() any { return new(batchRun) }}

// runMember applies member i of a decomposed batch; the member that
// finishes last replies. The task is the request's until then: its
// updates stay put while a member runs.
func (s *Server) runMember(b *batchRun, i int) {
	if s.cfg.workerGate != nil {
		<-s.cfg.workerGate
	}
	b.reports[i], b.errs[i] = s.chk.Apply(b.t.us[i])
	if b.remaining.Add(-1) > 0 {
		return
	}
	var res taskResult
	res.batch, res.err = batchOutcome(b.reports, b.errs)
	dur := time.Since(b.start)
	if b.t.span != nil {
		s.cfg.Spans.RecordChild(b.t.span, "decide", b.start, dur,
			map[string]string{"batch": strconv.Itoa(len(b.reports))}, "")
	}
	s.observeEWMA(dur)
	s.logTask(b.t, res, dur)
	s.answer(b.t, res)
	clear(b.errs)
	b.srv, b.t, b.reports = nil, nil, nil
	batchRuns.Put(b)
}
