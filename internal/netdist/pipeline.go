package netdist

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/store"
)

// This file is the coordinator's pipelined arm: the ApplyWorkers > 1
// path of ApplyBatch pushes updates through the conflict-aware
// scheduler (internal/sched) so that independent updates
// overlap their phase-1–3 checks and site RPCs — the wire wait of one
// update hides behind the local work and wire waits of others — while
// conflicting updates keep strict admission order. The worker count is
// how many updates compute at once: the index marks an update that writes
// or reads a placed relation Wire, and the scheduler runs those without
// a worker, so an update local data decides never waits out another's
// round trip and the batch itself bounds what is on the wire. Verdicts
// and the final global state are identical to the sequential arm; only
// the interleaving of independent updates (and therefore throughput
// under latency) changes.

// applyBatchPipelined is ApplyBatch on the scheduler: every update runs
// as one task (conflicting tasks in admission order), and the batch
// stays atomic — any rejection or error rolls back every applied update,
// locally and at its owning site, in reverse completion order.
//
// Equivalence to the sequential path: updates before the first bad index
// see exactly the sequential verdicts (conflict-serializability in
// admission order), so the first rejection lands at the same index with
// the same reports. The one divergence mirrors serve's non-atomic batch:
// updates past the failure have already been dispatched here — but they
// are rolled back with everything else, so the committed outcome is
// bit-identical to the sequential arm's.
func (co *Coordinator) applyBatchPipelined(updates []store.Update, workers int) (core.BatchReport, error) {
	br := core.BatchReport{Applied: true, FailedAt: -1}
	n := len(updates)
	if n == 0 {
		return br, nil
	}
	reports := make([]core.Report, n)
	errs := make([]error, n)
	type applied struct {
		idx     int
		changed bool
	}
	var mu sync.Mutex
	var done []applied // completion order of successful applies
	s := sched.New(sched.Options{Workers: workers, Metrics: sched.NewMetrics(co.opts.Metrics, "netdist")})
	ix := co.Checker.Footprints()
	for i, u := range updates {
		i, u := i, u
		s.Submit(ix.Update(u), func(sched.Info) {
			// Same-fingerprint writers are serialized by the scheduler, so
			// the membership probe cannot interleave with a conflicting
			// apply.
			changes := co.mirror.Contains(u.Relation, u.Tuple) != u.Insert
			reports[i], errs[i] = co.Apply(u)
			if errs[i] == nil && reports[i].Applied {
				mu.Lock()
				done = append(done, applied{i, changes})
				mu.Unlock()
			}
		})
	}
	s.Close()

	bad := -1
	for i := 0; i < n; i++ {
		if errs[i] != nil || !reports[i].Applied {
			bad = i
			break
		}
	}
	if bad < 0 {
		br.Reports = reports
		return br, nil
	}
	for k := len(done) - 1; k >= 0; k-- {
		if !done[k].changed {
			continue
		}
		u := updates[done[k].idx]
		co.undoMirror(u)
		if _, remote := co.place[u.Relation]; remote {
			if err := co.unpropagate(u); err != nil {
				return br, fmt.Errorf("netdist: batch rollback of %s: %w", u, err)
			}
		}
	}
	if errs[bad] != nil {
		br.Reports = reports[:bad]
		return br, errs[bad]
	}
	br.Applied = false
	br.FailedAt = bad
	br.Reports = reports[:bad+1]
	return br, nil
}
