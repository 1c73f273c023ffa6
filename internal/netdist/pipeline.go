package netdist

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/store"
)

// ApplyBatch applies the updates as one atomic transaction, mirroring
// core.Checker.ApplyBatch: on the first rejection or error every
// already-applied update is undone locally and, for remote relations,
// un-propagated. FailedAt reports the offending index on rejection.
//
// Every update is one call of the same body. At Options.ApplyWorkers <= 1
// the caller runs them in turn, so the members run one at a time in
// admission order, exactly as many round trips each time. Above that
// each is a task of a conflict-aware scheduler (internal/sched) with
// ApplyWorkers tokens, so that independent updates overlap their
// phase-1–3 checks and site RPCs — the wire wait of one hides behind the
// local work and wire waits of others — while conflicting ones keep
// admission order. The tokens bound the updates that compute at once:
// one that may wait on a site (sched.Footprint.Wire) holds none, so the
// batch itself bounds what is on the wire. The rollback runs in reverse
// completion order.
//
// Updates before the first bad index see exactly the verdicts of a
// one-by-one run in admission order (conflict-serializability), so the
// first rejection lands at the same index with the same reports. An
// update that starts after an earlier one failed is not applied; one
// already past its start is rolled back with everything else, so the
// committed outcome is that of the one-by-one run.
func (co *Coordinator) ApplyBatch(updates []store.Update) (core.BatchReport, error) {
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
	var done []applied      // completion order of successful applies
	var failed atomic.Int64 // lowest index that failed so far; n: none
	failed.Store(int64(n))
	apply := func(i int) {
		if failed.Load() < int64(i) {
			return // rolled back anyway: spare the sites the write
		}
		u := updates[i]
		// Same-fingerprint writers are serialized by the scheduler, so the
		// membership probe cannot interleave with a conflicting apply.
		changes := co.mirror.Contains(u.Relation, u.Tuple) != u.Insert
		reports[i], errs[i] = co.Apply(u)
		if errs[i] == nil && reports[i].Applied {
			mu.Lock()
			done = append(done, applied{i, changes})
			mu.Unlock()
			return
		}
		for f := failed.Load(); int64(i) < f; f = failed.Load() {
			if failed.CompareAndSwap(f, int64(i)) {
				break
			}
		}
	}
	if co.opts.ApplyWorkers <= 1 {
		for i := range updates {
			apply(i)
		}
	} else {
		s := sched.New(sched.Options{Workers: co.opts.ApplyWorkers, Metrics: sched.NewMetrics(co.opts.Metrics, "netdist")})
		ix := co.Checker.Footprints()
		for i, u := range updates {
			s.Submit(ix.Update(u), func(sched.Info) { apply(i) })
		}
		s.Close()
	}

	bad := int(failed.Load())
	if bad == n {
		br.Reports = reports
		return br, nil
	}
	err := errs[bad]
	if err != nil {
		br.Reports = reports[:bad]
	} else {
		br.Applied, br.FailedAt, br.Reports = false, bad, reports[:bad+1]
	}
	for k := len(done) - 1; k >= 0; k-- {
		if !done[k].changed {
			continue
		}
		u := updates[done[k].idx]
		co.undoMirror(u)
		if _, remote := co.place[u.Relation]; remote {
			if rbErr := co.unpropagate(u); rbErr != nil {
				return br, fmt.Errorf("netdist: batch rollback of %s: %w", u, rbErr)
			}
		}
	}
	return br, err
}
