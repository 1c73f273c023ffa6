package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/netdist"
	"repro/internal/residual"
	"repro/internal/sched"
	"repro/internal/store"
)

// Per-layer metrics that every workload reports. Three sources: the
// public Stats() snapshots as deltas over the timed section, the spans
// of the traced repetition, and replays — timing a layer's public
// function directly on inputs taken from the workload's own stream and
// stores. A metric of a layer the workload does not run stays 0.

// counterMetrics reads the counters.
func counterMetrics(m metrics, a, b snap) {
	decisions := float64(b.core.Decisions - a.core.Decisions)
	updates := float64(b.core.Updates - a.core.Updates)
	for _, p := range []core.Phase{core.PhaseUnaffected, core.PhasePolarity, core.PhaseUpdateOnly,
		core.PhaseLocalData, core.PhaseGlobal, core.PhaseResidual} {
		m["core.phase_share."+p.String()] = share(float64(b.core.ByPhase[p]-a.core.ByPhase[p]), decisions)
	}
	m["residual.decided_share"] = m["core.phase_share."+core.PhaseResidual.String()]
	hits, misses := float64(b.core.ResidualHits-a.core.ResidualHits), float64(b.core.ResidualMisses-a.core.ResidualMisses)
	m["residual.cache_hit_share"] = share(hits, hits+misses)
	// Compilations happen in the warm-up; the lifetime count is the one
	// that says how many patterns the workload has.
	m["residual.compiled"] = float64(b.core.ResidualCompiled)
	hits, misses = float64(b.core.CacheHits-a.core.CacheHits), float64(b.core.CacheMisses-a.core.CacheMisses)
	m["core.decision_cache_hit_share"] = share(hits, hits+misses)
	hits, misses = float64(b.core.PlanHits-a.core.PlanHits), float64(b.core.PlanMisses-a.core.PlanMisses)
	m["eval.plan_cache_hit_share"] = share(hits, hits+misses)
	m["relation.index_probes_per_op"] = share(float64(b.probes-a.probes), updates)
	m["relation.index_builds"] = float64(b.builds - a.builds)

	var reqs, rejected float64
	for k, n := range b.serve.Requests {
		reqs += float64(n - a.serve.Requests[k])
	}
	for k, n := range b.serve.Rejections {
		rejected += float64(n - a.serve.Rejections[k])
	}
	m["serve.rejected_share"] = share(rejected, reqs+rejected)
	tasks := float64(b.serve.SchedTasks - a.serve.SchedTasks)
	m["sched.tasks"] = tasks
	m["sched.conflict_stall_share"] = share(float64(b.serve.SchedConflictStalls-a.serve.SchedConflictStalls), tasks)

	coUpdates := float64(b.co.Updates - a.co.Updates)
	m["local_decided_share"] = 1 // nothing is remote unless there is a coordinator
	if coUpdates > 0 {
		m["local_decided_share"] = float64(b.co.DecidedLocally-a.co.DecidedLocally) / coUpdates
	}
	m["remote_round_trips_per_op"] = share(float64(b.co.RoundTrips-a.co.RoundTrips), coUpdates)
	m["wire_tuples_per_op"] = share(float64(b.co.WireTuples-a.co.WireTuples), coUpdates)
	routed, scatter := float64(b.co.ShardRouted-a.co.ShardRouted), float64(b.co.ShardScatter-a.co.ShardScatter)
	m["netdist.shard_routed_share"] = share(routed, routed+scatter)
	m["netdist.key_fetches"] = float64(b.co.KeyFetches - a.co.KeyFetches)
	m["netdist.retries"] = float64(b.co.Retries - a.co.Retries)
	m["netdist.unavailable"] = float64(b.co.Unavailable - a.co.Unavailable)
	m["site.requests"] = float64(b.siteReqs - a.siteReqs)
}

// spanMetrics reads the traced repetition's spans.
func spanMetrics(m metrics, spans []span) {
	kind := func(k string) func(*span) bool { return func(s *span) bool { return s.Op == k } }
	m["core.check_ns"] = median(durations(spans, layBackend, kind("check")))
	m["core.apply_ns"] = median(durations(spans, layBackend, kind("apply")))
}

// timePasses calls f over and over for about budget and returns the
// median, over the passes, of the time per unit, in nanoseconds. f
// returns how many units it did.
func timePasses(budget time.Duration, f func() int) float64 {
	var per []float64
	for start := time.Now(); len(per) < 5 || time.Since(start) < budget; {
		t0 := time.Now()
		n := f()
		if n == 0 {
			return 0
		}
		per = append(per, float64(time.Since(t0))/float64(n))
		if len(per) >= 1000 {
			break
		}
	}
	return median(per)
}

// replayMetrics times the layers' public functions directly.
func replayMetrics(m metrics, h handles, tr *tracer, budget time.Duration) {
	db := h.chk.DB()

	// residual: look the compiled check up and run it, for every
	// (constraint, update) pair the compiler accepts.
	cache := residual.NewCache()
	m["residual.decide_ns"] = timePasses(budget, func() (n int) {
		for _, u := range h.sample {
			for _, p := range h.progs {
				if res, _, ok := cache.For(p, u, db, residual.Options{}); ok {
					res.Decide(db, u.Tuple)
					n++
				}
			}
		}
		return n
	})

	m["core.plan_ns"] = timePasses(budget, func() int {
		for _, u := range h.sample {
			h.chk.Plan(u)
		}
		return len(h.sample)
	})

	// core: what the default worker pool costs a check, against the serial
	// pipeline the workload pins (serialChecker), on copies of its store.
	if h.co == nil {
		perCheck := func(opts core.Options) float64 {
			chk := core.New(db.Clone(), opts)
			for i, p := range h.progs {
				// The workload's own checker accepted these constraints.
				_ = chk.AddConstraint(fmt.Sprintf("c%d", i), p)
			}
			return timePasses(budget, func() int {
				for _, u := range h.sample {
					_, _ = chk.Check(u)
				}
				return len(h.sample)
			})
		}
		m["core.pool_overhead_share"] = 1 - share(perCheck(serialChecker), perCheck(core.Options{}))
	}

	// eval: one full evaluation of each constraint on the workload's store.
	pc := eval.NewPlanCache()
	m["eval.goal_ns"] = timePasses(budget, func() int {
		for _, p := range h.progs {
			// The seeded store satisfies the constraints; a derivation or an
			// error here would have failed the set-up already.
			_, _ = eval.GoalHoldsWith(p, db, "panic", eval.Options{Cache: pc})
		}
		return len(h.progs)
	})

	// store: one insert and its delete, on tuples of the stream that are
	// not in the store (net zero).
	var fresh []store.Update
	for _, u := range h.sample {
		if u.Insert && !db.Contains(u.Relation, u.Tuple) {
			fresh = append(fresh, u)
		}
	}
	m["store.insert_delete_ns"] = timePasses(budget, func() int {
		for _, u := range fresh {
			// Arity errors cannot happen: the stream already applied these.
			_, _ = db.Insert(u.Relation, u.Tuple)
			db.Delete(u.Relation, u.Tuple)
		}
		return len(fresh)
	})

	if h.srv == nil || h.srv.ApplyWorkers() <= 1 {
		return // no scheduler in this workload's path
	}
	ix := h.chk.Footprints()
	fps := make([]sched.Footprint, len(h.sample))
	m["sched.footprint_ns"] = timePasses(budget, func() int {
		for i, u := range h.sample {
			fps[i] = ix.Update(u)
		}
		return len(fps)
	})
	m["sched.submit_ns"] = timePasses(budget, func() int {
		s := sched.New(sched.Options{Workers: h.srv.ApplyWorkers()})
		for _, fp := range fps {
			s.Submit(fp, func(sched.Info) {})
		}
		s.Close()
		return len(fps)
	})

	if tr == nil || len(tr.frames) == 0 {
		return
	}
	// netdist: the frame codec on captured frames, and the site handler on
	// the captured reads (replaying writes would change the sites).
	var buf bytes.Buffer
	m["netdist.frame_codec_ns"] = timePasses(budget, func() int {
		for i := range tr.frames {
			f := &tr.frames[i]
			var req netdist.Request
			var resp netdist.Response
			buf.Reset()
			// A frame that crossed the loopback once encodes and decodes.
			_ = netdist.WriteFrame(&buf, &f.req)
			_ = netdist.ReadFrame(&buf, &req)
			_ = netdist.WriteFrame(&buf, &f.resp)
			_ = netdist.ReadFrame(&buf, &resp)
		}
		return len(tr.frames)
	})
	siteOf := map[string]*netdist.Server{}
	for i, s := range h.sites {
		siteOf[siteName(i)] = s
	}
	m["site.handle_us"] = timePasses(budget, func() (n int) {
		for i := range tr.frames {
			f := &tr.frames[i]
			if f.req.Type == netdist.OpFetch || f.req.Type == netdist.OpScan {
				siteOf[f.site].Handle(&f.req)
				n++
			}
		}
		return n
	}) / 1e3
}
