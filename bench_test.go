// Package repro's benchmark harness: one benchmark family per paper
// artifact, mirroring the experiment index in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// F2.1  BenchmarkFig21Classify
// F4.1  BenchmarkFig41InsertRewrite
// F4.2  BenchmarkFig42DeleteRewrite
// T3    BenchmarkSubsumption
// T5.1  BenchmarkTheorem51 / BenchmarkKlug (the paper's comparison)
// T5.2  BenchmarkLocalTestReductions
// T5.3  BenchmarkRACompile / BenchmarkRALocalTest
// F6.1  BenchmarkIntervalDatalog / BenchmarkIntervalSweep (ablation)
// D1    BenchmarkDistributedStaged / BenchmarkDistributedNaive
// D-net BenchmarkNetDistLoopback (wire protocol + coordinator,
//
//	sequential vs pipelined arms)
//
// Pipe  BenchmarkServePipeline (conflict-aware apply scheduler behind
//
//	the decision server, 1/2/4/8 workers, low vs high conflict)
//
// plus substrate micro-benchmarks (solver, evaluator, SAT).
package repro

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/eval"
	"repro/internal/icq"
	"repro/internal/ineq"
	"repro/internal/netdist"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/reduction"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/subsume"
	"repro/internal/workload"
)

// --- F2.1 ----------------------------------------------------------------

func BenchmarkFig21Classify(b *testing.B) {
	progs := []*ast.Program{
		parser.MustParseProgram("panic :- emp(E,sales) & emp(E,accounting)."),
		parser.MustParseProgram("panic :- emp(E,D,S) & not dept(D) & S < 100."),
		parser.MustParseProgram(`panic :- boss(E,E).
			boss(E,M) :- emp(E,D,S) & manager(D,M).
			boss(E,F) :- boss(E,G) & boss(G,F).`),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			_ = classify.Classify(p)
		}
	}
}

// --- F4.1 / F4.2 -----------------------------------------------------------

func BenchmarkFig41InsertRewrite(b *testing.B) {
	c := parser.MustParseProgram("panic :- emp(E,D,S) & not dept(D).")
	t := relation.Strs("toy")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rewrite.Insert(c, "dept", t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig42DeleteRewrite(b *testing.B) {
	c := parser.MustParseProgram("panic :- emp(E,D,S) & not dept(D).")
	t := relation.TupleOf(ast.Str("jones"), ast.Str("shoe"), ast.Int(50))
	b.Run("arith", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rewrite.DeleteArith(c, "emp", t); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("neg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rewrite.DeleteNeg(c, "emp", t); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- T3 --------------------------------------------------------------------

func BenchmarkSubsumption(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("subgoals=%d", k), func(b *testing.B) {
			c := ast.NewProgram(workload.ChainCQC(k))
			set := []*ast.Program{ast.NewProgram(workload.ChainCQC(k))}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := subsume.Subsumes(c, set)
				if err != nil || res.Verdict != subsume.Yes {
					b.Fatalf("unexpected: %+v %v", res, err)
				}
			}
		})
	}
}

// --- T5.1: Theorem 5.1 vs Klug ----------------------------------------------

func BenchmarkTheorem51(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4, 5} {
		b.Run(fmt.Sprintf("dupPreds=%d", k), func(b *testing.B) {
			c1, c2 := workload.ChainCQC(k), workload.ChainCQC(k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := containment.Theorem51(c1, c2)
				if err != nil || !ok {
					b.Fatalf("unexpected: %v %v", ok, err)
				}
			}
		})
	}
}

func BenchmarkKlug(b *testing.B) {
	// Klug's enumeration grows with the ordered Bell numbers of 2k
	// variables; k=4 already means millions of orders, so the sweep stops
	// earlier than Theorem 5.1's.
	for _, k := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("dupPreds=%d", k), func(b *testing.B) {
			c1, c2 := workload.ChainCQC(k), workload.ChainCQC(k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := containment.Klug(c1, c2)
				if err != nil || !ok {
					b.Fatalf("unexpected: %v %v", ok, err)
				}
			}
		})
	}
}

// --- T5.2 --------------------------------------------------------------------

func BenchmarkLocalTestReductions(b *testing.B) {
	rule := parser.MustParseConstraint("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.")
	cqc, err := ast.NewCQC(rule, "l")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("L=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			L := workload.Intervals(rng, n, 20, 200)
			ins := relation.Ints(50, 60)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := reduction.LocalTest(cqc, ins, L); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T5.3 --------------------------------------------------------------------

func BenchmarkRACompile(b *testing.B) {
	rule := parser.MustParseConstraint("panic :- l(X,Y) & r(Y,W) & s(W,X).")
	ins := relation.Ints(3, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reduction.CompileRA(rule, "l", ins); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRALocalTest(b *testing.B) {
	rule := parser.MustParseConstraint("panic :- l(X,Y) & r(Y,W) & s(W,X).")
	ins := relation.Ints(3, 4)
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("L=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			db := store.New()
			for i := 0; i < n; i++ {
				if _, err := db.Insert("l", relation.Ints(rng.Int63n(50), rng.Int63n(50))); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := reduction.RALocalTest(rule, "l", ins, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- F6.1 ablation -------------------------------------------------------------

func intervalAnalysis(b *testing.B) *icq.Analysis {
	b.Helper()
	rule := parser.MustParseConstraint("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.")
	cqc, err := ast.NewCQC(rule, "l")
	if err != nil {
		b.Fatal(err)
	}
	a, err := icq.Analyze(cqc)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

func BenchmarkIntervalDatalog(b *testing.B) {
	// The paper's nonlinear Fig 6.1 program materializes O(|L|^2) merged
	// intervals through a derived×derived join; sizes stay small.
	a := intervalAnalysis(b)
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("L=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			db := store.New()
			for _, t := range workload.Intervals(rng, n, 20, 200) {
				if _, err := db.Insert("l", t); err != nil {
					b.Fatal(err)
				}
			}
			ins := relation.Ints(50, 60)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.CertifyInsertDatalog(ins, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkIntervalDatalogLinear(b *testing.B) {
	// Ablation: the linear merge variant (derived×basis join) scales much
	// further than the paper's nonlinear rule while answering identically.
	a := intervalAnalysis(b)
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("L=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			db := store.New()
			for _, t := range workload.Intervals(rng, n, 20, 200) {
				if _, err := db.Insert("l", t); err != nil {
					b.Fatal(err)
				}
			}
			ins := relation.Ints(50, 60)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.CertifyInsertDatalogLinear(ins, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkIntervalSweep(b *testing.B) {
	a := intervalAnalysis(b)
	for _, n := range []int{8, 32, 128, 1024, 8192} {
		b.Run(fmt.Sprintf("L=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			L := workload.Intervals(rng, n, 20, 200)
			ins := relation.Ints(50, 60)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.CertifyInsert(ins, L); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- D1 --------------------------------------------------------------------

func benchDistributed(b *testing.B, naive bool) {
	rngSeed := int64(42)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := rand.New(rand.NewSource(rngSeed))
		db := store.New()
		for _, t := range workload.Intervals(rng, 40, 20, 200) {
			if _, err := db.Insert("l", t); err != nil {
				b.Fatal(err)
			}
		}
		for j := int64(0); j < 100; j++ {
			if _, err := db.Insert("r", relation.Ints(10000+j)); err != nil {
				b.Fatal(err)
			}
		}
		opts := core.Options{LocalRelations: []string{"l"}}
		if naive {
			opts.DisableUpdateOnly = true
			opts.DisableLocalData = true
		}
		sys := dist.NewWithOptions(db, opts, dist.DefaultCost)
		if err := sys.Checker.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
			b.Fatal(err)
		}
		updates := workload.IntervalInserts(rng, 20, 10, 200, "l")
		b.StartTimer()
		for _, u := range updates {
			if _, err := sys.Apply(u); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(sys.Stats().RemoteTuples), "remote-tuples/op")
		b.StartTimer()
	}
}

func BenchmarkDistributedStaged(b *testing.B) { benchDistributed(b, false) }
func BenchmarkDistributedNaive(b *testing.B)  { benchDistributed(b, true) }

// benchNetDistLoopback is the D-net counterpart of
// BenchmarkDistributedStaged: the same interval workload, but the remote
// relation answers through the netdist wire protocol (frame codec and
// all) over the in-process loopback transport. The gap between the
// sequential arm and BenchmarkDistributedStaged is the real marshalling
// cost of going remote; the gap between the sequential and pipelined
// arms is what the conflict-aware scheduler recovers by overlapping
// independent updates' checks and round trips, which grows with the
// injected wire latency.
func benchNetDistLoopback(b *testing.B, workers int, latency time.Duration) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := rand.New(rand.NewSource(42))
		remote := store.New()
		for j := int64(0); j < 50; j++ {
			if _, err := remote.Insert("r", relation.Ints(10000+j)); err != nil {
				b.Fatal(err)
			}
		}
		lb := netdist.NewLoopback()
		lb.AddSite("siteR", netdist.NewServer(remote, []string{"r"}))
		if latency > 0 {
			lb.SetLatency("siteR", latency)
		}
		local := store.New()
		for _, tu := range workload.Intervals(rng, 40, 20, 200) {
			if _, err := local.Insert("l", tu); err != nil {
				b.Fatal(err)
			}
		}
		co, err := netdist.New(local, []netdist.SiteSpec{{Site: "siteR", Relations: []string{"r"}}}, lb,
			netdist.Options{Checker: core.Options{LocalRelations: []string{"l"}}})
		if err != nil {
			b.Fatal(err)
		}
		if err := co.Checker.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
			b.Fatal(err)
		}
		updates := workload.IntervalInserts(rng, 20, 10, 200, "l")
		b.StartTimer()
		for _, r := range co.ApplyStream(updates, workers) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
		}
		b.StopTimer()
		st := co.Stats()
		b.ReportMetric(float64(st.WireTuples), "wire-tuples/op")
		b.ReportMetric(float64(st.RoundTrips), "round-trips/op")
		b.StartTimer()
	}
}

func BenchmarkNetDistLoopback(b *testing.B) {
	b.Run("arm=sequential", func(b *testing.B) { benchNetDistLoopback(b, 1, 0) })
	b.Run("arm=pipelined8", func(b *testing.B) { benchNetDistLoopback(b, 8, 0) })
	b.Run("arm=sequential/latency=500us", func(b *testing.B) { benchNetDistLoopback(b, 1, 500*time.Microsecond) })
	b.Run("arm=pipelined8/latency=500us", func(b *testing.B) { benchNetDistLoopback(b, 8, 500*time.Microsecond) })

	// Scale-out arms (BENCH_shard.json): the referential workload against
	// a dept relation placed whole on one site, hash-sharded across 4 and
	// 16 sites, and sharded with routing disabled (pure scatter-gather).
	// Uniform keys; every update's probe is key-covered, so the sharded
	// arms route it to the single owning shard.
	b.Run("shard/sites=1/place=whole/lat=0us", func(b *testing.B) { benchNetDistShard(b, 1, "whole", 0) })
	b.Run("shard/sites=4/place=whole/lat=0us", func(b *testing.B) { benchNetDistShard(b, 4, "whole", 0) })
	b.Run("shard/sites=4/place=sharded/lat=0us", func(b *testing.B) { benchNetDistShard(b, 4, "sharded", 0) })
	b.Run("shard/sites=4/place=scatter/lat=0us", func(b *testing.B) { benchNetDistShard(b, 4, "scatter", 0) })
	b.Run("shard/sites=16/place=sharded/lat=0us", func(b *testing.B) { benchNetDistShard(b, 16, "sharded", 0) })
	b.Run("shard/sites=1/place=whole/lat=500us", func(b *testing.B) { benchNetDistShard(b, 1, "whole", 500*time.Microsecond) })
	b.Run("shard/sites=4/place=sharded/lat=500us", func(b *testing.B) { benchNetDistShard(b, 4, "sharded", 500*time.Microsecond) })
	b.Run("shard/sites=16/place=sharded/lat=500us", func(b *testing.B) { benchNetDistShard(b, 16, "sharded", 500*time.Microsecond) })
}

// benchNetDistShard measures horizontal scale-out: 64 emp inserts, each
// checked against a remotely-placed dept of 200 keys by the referential
// constraint, streamed through 8 apply workers. The whole-relation
// placement refreshes all of dept (one scan, ~200 tuples) per update —
// more sites do not help it. The sharded placement's residual probe is
// key-covered, so each update ships one key group from its owning shard;
// scatter mode keeps the partitioning but disables routing, paying one
// scan per shard instead. wire-tuples/op is the shipped-bytes story;
// routed/scatter count the routing decisions.
func benchNetDistShard(b *testing.B, sites int, mode string, latency time.Duration) {
	const deptKeys, updates, workers = 200, 64, 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := rand.New(rand.NewSource(7))
		lb := netdist.NewLoopback()
		rp := netdist.RelPlacement{KeyCol: 0}
		stores := make([]*store.Store, sites)
		for s := range stores {
			site := fmt.Sprintf("site%d", s)
			stores[s] = store.New()
			lb.AddSite(site, netdist.NewServer(stores[s], []string{"dept"}))
			if latency > 0 {
				lb.SetLatency(site, latency)
			}
			rp.Shards = append(rp.Shards, netdist.ShardSpec{Leader: site})
		}
		if mode == "whole" {
			rp = netdist.RelPlacement{Shards: rp.Shards[:1]}
		}
		place := netdist.Placement{"dept": rp}
		for k := int64(0); k < deptKeys; k++ {
			tu := relation.Ints(k)
			si := 0
			if rp.Sharded() {
				si = place.ShardOf("dept", tu[0])
			}
			if _, err := stores[si].Insert("dept", tu); err != nil {
				b.Fatal(err)
			}
		}
		co, err := netdist.NewPlaced(store.New(), place, lb, netdist.Options{
			Checker:             core.Options{LocalRelations: []string{"emp"}},
			DisableShardRouting: mode == "scatter",
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := co.Checker.AddConstraintSource("ref", "panic :- emp(E, D) & not dept(D)."); err != nil {
			b.Fatal(err)
		}
		us := make([]store.Update, updates)
		for j := range us {
			us[j] = store.Ins("emp", relation.Ints(int64(10_000+j), rng.Int63n(deptKeys)))
		}
		b.StartTimer()
		for _, r := range co.ApplyStream(us, workers) {
			if r.Err != nil {
				b.Fatal(r.Err)
			}
			if !r.Report.Applied {
				b.Fatal("admissible emp insert rejected")
			}
		}
		b.StopTimer()
		st := co.Stats()
		b.ReportMetric(float64(st.WireTuples), "wire-tuples/op")
		b.ReportMetric(float64(st.RoundTrips), "round-trips/op")
		b.ReportMetric(float64(st.ShardRouted), "routed/op")
		b.ReportMetric(float64(st.ShardScatter), "scatter/op")
		b.StartTimer()
	}
}

// --- Pipe: conflict-aware apply scheduling ----------------------------------

// benchServePipeline drives 16 concurrent closed-loop clients against a
// decision server fronting the loopback D-net deployment with 300µs of
// wire latency on the r-site. Every admitted l-insert refreshes r over
// the wire before its global phase, so the sequential arm (workers=1)
// waits out one round trip per update while the pipelined arm overlaps
// the round trips of non-conflicting updates. One benchmark op is the
// whole 64-update stream.
//
// The low-conflict stream inserts 64 distinct l intervals — pairwise
// independent footprints (distinct write fingerprints, read-read on r).
// The high-conflict stream churns one l tuple — every update conflicts
// with its predecessor, so the scheduler must degrade to admission-order
// sequential behaviour and the pipelined arm buys nothing.
func benchServePipeline(b *testing.B, workers int, conflict bool) {
	const n, clients = 64, 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		remote := store.New()
		for j := int64(0); j < 50; j++ {
			if _, err := remote.Insert("r", relation.Ints(10000+j)); err != nil {
				b.Fatal(err)
			}
		}
		lb := netdist.NewLoopback()
		lb.AddSite("siteR", netdist.NewServer(remote, []string{"r"}))
		lb.SetLatency("siteR", 300*time.Microsecond)
		rng := rand.New(rand.NewSource(42))
		local := store.New()
		for _, tu := range workload.Intervals(rng, 40, 20, 200) {
			if _, err := local.Insert("l", tu); err != nil {
				b.Fatal(err)
			}
		}
		co, err := netdist.New(local, []netdist.SiteSpec{{Site: "siteR", Relations: []string{"r"}}}, lb,
			netdist.Options{Checker: core.Options{LocalRelations: []string{"l"}}})
		if err != nil {
			b.Fatal(err)
		}
		if err := co.Checker.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
			b.Fatal(err)
		}
		srv := serve.New(netdist.ServeBackend{Co: co}, serve.Config{ApplyWorkers: workers, QueueDepth: 256})
		updates := make([]store.Update, n)
		for k := range updates {
			if conflict {
				tu := relation.Ints(300, 301)
				if k%2 == 0 {
					updates[k] = store.Ins("l", tu)
				} else {
					updates[k] = store.Del("l", tu)
				}
			} else {
				lo := int64(300 + 2*k)
				updates[k] = store.Ins("l", relation.Ints(lo, lo+1))
			}
		}
		b.StartTimer()
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for k := c; k < n; k += clients {
					if _, err := srv.Apply(fmt.Sprintf("c%d", c), updates[k]); err != nil {
						b.Error(err)
						return
					}
				}
			}(c)
		}
		wg.Wait()
		b.StopTimer()
		st := srv.Stats()
		srv.Close()
		b.ReportMetric(float64(st.SchedConflictStalls), "stalls/op")
		b.StartTimer()
	}
	b.ReportMetric(n, "updates/op")
}

func BenchmarkServePipeline(b *testing.B) {
	b.Run("workers=1", func(b *testing.B) { benchServePipeline(b, 1, false) })
	b.Run("workers=2", func(b *testing.B) { benchServePipeline(b, 2, false) })
	b.Run("workers=4", func(b *testing.B) { benchServePipeline(b, 4, false) })
	b.Run("workers=8", func(b *testing.B) { benchServePipeline(b, 8, false) })
	b.Run("workers=8/conflict", func(b *testing.B) { benchServePipeline(b, 8, true) })
}

// --- pipeline: parallel dispatch + decision cache ----------------------------

// applyParallelConstraints is the ≥8-constraint set for the pipeline
// benchmark: the paper's running employee constraints plus satisfiable
// extras over every relation the mixed workload touches.
func applyParallelConstraints() map[string]string {
	cons := workload.StandardEmployeeConstraints()
	cons["cap"] = "panic :- emp(E,D,S) & S > 2000."
	cons["floor"] = "panic :- emp(E,D,S) & S < 0."
	cons["range-ref"] = "panic :- salRange(D,Low,High) & not dept(D)."
	cons["range-order"] = "panic :- salRange(D,Low,High) & Low > High."
	cons["blocked"] = "panic :- emp(E,D,S) & blocked(E)."
	cons["closed"] = "panic :- dept(D) & closed(D)."
	return cons
}

func benchApplyParallel(b *testing.B, opts core.Options) {
	b.Helper()
	cons := applyParallelConstraints()
	names := make([]string, 0, len(cons))
	for n := range cons {
		names = append(names, n)
	}
	sort.Strings(names)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := rand.New(rand.NewSource(9))
		db := store.New()
		if err := workload.EmployeeDB(rng, db, 6, 200); err != nil {
			b.Fatal(err)
		}
		db.MustEnsure("blocked", 1)
		db.MustEnsure("closed", 1)
		c := core.New(db, opts)
		for _, n := range names {
			if err := c.AddConstraintSource(n, cons[n]); err != nil {
				b.Fatal(err)
			}
		}
		updates := workload.EmployeeUpdates(rng, 60, 6, 0.1)
		b.StartTimer()
		for _, u := range updates {
			if _, err := c.Apply(u); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkApplyParallel drives a mixed update stream through ≥8
// constraints: the seed configuration (one worker, no decision cache)
// against the cached serial and cached parallel pipelines.
func BenchmarkApplyParallel(b *testing.B) {
	b.Run("workers=1/seed", func(b *testing.B) {
		benchApplyParallel(b, core.Options{Workers: 1, DisableCache: true})
	})
	b.Run("workers=1/cached", func(b *testing.B) {
		benchApplyParallel(b, core.Options{Workers: 1})
	})
	b.Run(fmt.Sprintf("workers=%d/cached", runtime.GOMAXPROCS(0)), func(b *testing.B) {
		benchApplyParallel(b, core.Options{})
	})
}

// --- compile-once: plan cache A/B -------------------------------------------

// benchApplyD1 drives the D1 interval stream — every local l-insert
// followed by a remote-side r-insert — through a checker with the given
// options; the plan-cache and residual A/Bs below share this body.
func benchApplyD1(b *testing.B, opts core.Options) {
	b.Helper()
	opts.LocalRelations = []string{"l"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := rand.New(rand.NewSource(42))
		db := store.New()
		for _, t := range workload.Intervals(rng, 40, 20, 200) {
			if _, err := db.Insert("l", t); err != nil {
				b.Fatal(err)
			}
		}
		for j := int64(0); j < 100; j++ {
			if _, err := db.Insert("r", relation.Ints(10000+j)); err != nil {
				b.Fatal(err)
			}
		}
		c := core.New(db, opts)
		if err := c.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
			b.Fatal(err)
		}
		var updates []store.Update
		for k, u := range workload.IntervalInserts(rng, 20, 10, 200, "l") {
			updates = append(updates, u,
				store.Ins("r", relation.Ints(20000+int64(k))))
		}
		b.StartTimer()
		for _, u := range updates {
			if _, err := c.Apply(u); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// benchApplyCompiled runs the D1 stream with the cheap early phases and
// residual dispatch disabled, so each update runs the phase-4 global
// evaluation the plan cache targets. The compiled arm reuses one cached
// plan per (program, store shape) across the whole stream; the
// noplancache arm re-derives validation, stratification and join plans
// on every evaluation, which is exactly what the seed evaluator did.
func benchApplyCompiled(b *testing.B, opts core.Options) {
	b.Helper()
	opts.DisableUpdateOnly = true
	opts.DisableLocalData = true
	opts.DisableResidual = true
	benchApplyD1(b, opts)
}

// BenchmarkApplyCompiled is the compile-once A/B recorded in
// BENCH_plan.json: identical workloads, plan cache on vs off
// (ccheck -noplancache).
func BenchmarkApplyCompiled(b *testing.B) {
	b.Run("compiled", func(b *testing.B) {
		benchApplyCompiled(b, core.Options{})
	})
	b.Run("noplancache", func(b *testing.B) {
		benchApplyCompiled(b, core.Options{DisablePlanCache: true})
	})
}

// --- residual compilation: update-pattern A/B -------------------------------

// BenchmarkApplyResidual is the residual-dispatch A/B recorded in
// BENCH_residual.json: the default arm decides every D1 update with the
// pattern-compiled residual VM (two compilations for the whole stream —
// one per update pattern — then cache hits), while the noresidual arm
// is ccheck -noresidual: each update falls through the staged pipeline
// to the phase-4 global evaluation.
func BenchmarkApplyResidual(b *testing.B) {
	b.Run("residual", func(b *testing.B) {
		benchApplyD1(b, core.Options{})
	})
	b.Run("noresidual", func(b *testing.B) {
		benchApplyD1(b, core.Options{DisableResidual: true})
	})
}

// --- observability: tracing overhead ----------------------------------------

// benchTraceOverhead drives the D1 interval stream through a checker
// wired with the given tracer; the off/disabled/on sub-benchmarks below
// bound the cost of the always-compiled-in trace hooks.
func benchTraceOverhead(b *testing.B, tracer func() obs.Tracer) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := rand.New(rand.NewSource(42))
		db := store.New()
		for _, t := range workload.Intervals(rng, 40, 20, 200) {
			if _, err := db.Insert("l", t); err != nil {
				b.Fatal(err)
			}
		}
		for j := int64(0); j < 50; j++ {
			if _, err := db.Insert("r", relation.Ints(10000+j)); err != nil {
				b.Fatal(err)
			}
		}
		c := core.New(db, core.Options{LocalRelations: []string{"l"}, Tracer: tracer()})
		if err := c.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
			b.Fatal(err)
		}
		updates := workload.IntervalInserts(rng, 20, 10, 200, "l")
		b.StartTimer()
		for _, u := range updates {
			if _, err := c.Apply(u); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkTraceOverhead is the EXPERIMENTS.md tracing-overhead
// benchmark: "off" has no tracer at all, "disabled" pays only the
// Enabled() checks (the production default), "on" buffers every event.
func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) {
		benchTraceOverhead(b, func() obs.Tracer { return nil })
	})
	b.Run("disabled", func(b *testing.B) {
		benchTraceOverhead(b, func() obs.Tracer { return obs.Disabled })
	})
	b.Run("on", func(b *testing.B) {
		benchTraceOverhead(b, func() obs.Tracer { return obs.NewBufferTracer(64) })
	})
}

// benchSpanOverhead replays the BenchmarkTraceOverhead D1 stream with
// the span layer in a given state. sampled controls whether each update
// runs under an active root span; withStore whether finished spans are
// retained in a tail-sampling TraceStore.
func benchSpanOverhead(b *testing.B, installed, sampled, withStore bool) {
	b.Helper()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		rng := rand.New(rand.NewSource(42))
		db := store.New()
		for _, t := range workload.Intervals(rng, 40, 20, 200) {
			if _, err := db.Insert("l", t); err != nil {
				b.Fatal(err)
			}
		}
		for j := int64(0); j < 50; j++ {
			if _, err := db.Insert("r", relation.Ints(10000+j)); err != nil {
				b.Fatal(err)
			}
		}
		var spans *obs.SpanTracer
		var bridge *obs.SpanBridge
		opts := core.Options{LocalRelations: []string{"l"}}
		if installed {
			var st *obs.TraceStore
			if withStore {
				st = obs.NewTraceStore(64)
			}
			spans = obs.NewSpanTracer("bench", st, 1)
			bridge = obs.NewSpanBridge(spans)
			opts.Tracer = bridge
		}
		c := core.New(db, opts)
		if err := c.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
			b.Fatal(err)
		}
		updates := workload.IntervalInserts(rng, 20, 10, 200, "l")
		b.StartTimer()
		for _, u := range updates {
			var sp *obs.Span
			if sampled {
				sp = spans.StartRoot("bench.apply", obs.SpanContext{})
				bridge.SetActive(sp)
			}
			_, err := c.Apply(u)
			if sampled {
				bridge.SetActive(nil)
				sp.End()
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSpanOverhead is the EXPERIMENTS.md span-overhead benchmark
// (BENCH_obs.json): "off" has no span layer at all, "idle" installs the
// bridge but never activates a span (the spans-disabled production
// state the ≤2% acceptance bound applies to), "sampled" runs every
// update under a root span, and "sampled+store" additionally retains
// the finished traces.
func BenchmarkSpanOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchSpanOverhead(b, false, false, false) })
	b.Run("idle", func(b *testing.B) { benchSpanOverhead(b, true, false, false) })
	b.Run("sampled", func(b *testing.B) { benchSpanOverhead(b, true, true, false) })
	b.Run("sampled+store", func(b *testing.B) { benchSpanOverhead(b, true, true, true) })
}

// --- substrate micro-benchmarks ----------------------------------------------

func BenchmarkIneqImplies(b *testing.B) {
	z := ast.V("Z")
	premise := []ast.Comparison{
		ast.NewComparison(ast.CInt(4), ast.Le, z),
		ast.NewComparison(z, ast.Le, ast.CInt(8)),
	}
	disjuncts := [][]ast.Comparison{
		{ast.NewComparison(ast.CInt(3), ast.Le, z), ast.NewComparison(z, ast.Le, ast.CInt(6))},
		{ast.NewComparison(ast.CInt(5), ast.Le, z), ast.NewComparison(z, ast.Le, ast.CInt(10))},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ineq.Implies(premise, disjuncts) {
			b.Fatal("implication lost")
		}
	}
}

// BenchmarkImpliesAblation compares the lazy DPLL-style implication
// checker against the textbook DNF expansion on a many-disjunct interval
// instance — the design-choice ablation called out in DESIGN.md.
func BenchmarkImpliesAblation(b *testing.B) {
	z := ast.V("Z")
	mk := func(n int) ([]ast.Comparison, [][]ast.Comparison) {
		premise := []ast.Comparison{
			ast.NewComparison(ast.CInt(0), ast.Le, z),
			ast.NewComparison(z, ast.Le, ast.CInt(int64(2*n))),
		}
		var disjuncts [][]ast.Comparison
		for i := 0; i < n; i++ {
			disjuncts = append(disjuncts, []ast.Comparison{
				ast.NewComparison(ast.CInt(int64(2*i)), ast.Le, z),
				ast.NewComparison(z, ast.Le, ast.CInt(int64(2*i+3))),
			})
		}
		return premise, disjuncts
	}
	for _, n := range []int{4, 8, 12} {
		premise, disjuncts := mk(n)
		b.Run(fmt.Sprintf("dpll/disjuncts=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !ineq.Implies(premise, disjuncts) {
					b.Fatal("implication lost")
				}
			}
		})
		b.Run(fmt.Sprintf("dnf/disjuncts=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !ineq.ImpliesDNF(premise, disjuncts) {
					b.Fatal("implication lost")
				}
			}
		})
	}
}

func BenchmarkEvalTransitiveClosure(b *testing.B) {
	prog := parser.MustParseProgram(`
		reach(X,Y) :- edge(X,Y).
		reach(X,Y) :- reach(X,Z) & edge(Z,Y).`)
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			db := store.New()
			for i := 0; i < n; i++ {
				if _, err := db.Insert("edge", relation.Ints(int64(i), int64(i+1))); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eval.Eval(prog, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEvalIndexed measures the hash-index layer on a selective
// three-way join: the first join column is unselective (100 tuples per
// X) while the full bound signature (X,Y) is unique, so the indexed arm
// probes ~1 tuple where the scan arm filters ~100 per binding. The scan
// arm (Options{DisableIndexes: true}) is the seed evaluator: textual
// atom order, single-column first-constant lookup, per-tuple filtering.
func BenchmarkEvalIndexed(b *testing.B) {
	prog := parser.MustParseProgram("hit(X,Z) :- head(X,Y) & detail(X,Y,Z) & audit(Z).")
	db := store.New()
	for i := int64(0); i < 1000; i++ {
		if _, err := db.Insert("head", relation.Ints(i%10, i)); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Insert("detail", relation.Ints(i%10, i, i)); err != nil {
			b.Fatal(err)
		}
		if _, err := db.Insert("audit", relation.Ints(i)); err != nil {
			b.Fatal(err)
		}
	}
	for _, arm := range []struct {
		name string
		opts eval.Options
	}{
		{"indexed", eval.Options{}},
		{"scan", eval.Options{DisableIndexes: true}},
	} {
		b.Run(arm.name, func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eval.EvalWith(prog, db, arm.opts)
				if err != nil {
					b.Fatal(err)
				}
				if n := len(res.Tuples("hit")); n != 1000 {
					b.Fatalf("hit = %d tuples, want 1000", n)
				}
			}
		})
	}
}

func BenchmarkNegationContainment(b *testing.B) {
	c1 := parser.MustParseConstraint("panic :- emp(E,D) & vip(E) & not dept(D).")
	c2 := parser.MustParseConstraint("panic :- emp(E,D) & not dept(D).")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := containment.ContainsWithNegation(c1, c2)
		if err != nil || !ok {
			b.Fatalf("unexpected: %v %v", ok, err)
		}
	}
}

// BenchmarkGlobalPhase compares the two ways the global phase decides an
// edge insert under the acyclicity constraint — evaluating the constraint
// from scratch with the insert pending (recompute) vs the rounds the
// inserted tuple seeds on a kept fixpoint (delta) — on a forward edge,
// which derives nothing new, and a closing edge, which derives panic.
// Each iteration is one check; the store is never written.
func BenchmarkGlobalPhase(b *testing.B) {
	prog := parser.MustParseProgram(`
		reach(X,Y) :- edge(X,Y).
		reach(X,Y) :- reach(X,Z) & edge(Z,Y).
		panic :- reach(X,X).`)
	for _, n := range []int{8, 64, 128} {
		edges := map[string]relation.Tuple{
			"forward": relation.Ints(int64(n/8), int64(n/2)),
			"closing": relation.Ints(int64(n/2), int64(n/8)),
		}
		for _, kind := range []string{"forward", "closing"} {
			tu := edges[kind]
			seeded := func() *store.Store {
				db := store.New()
				for i := 0; i < n-1; i++ {
					if _, err := db.Insert("edge", relation.Ints(int64(i), int64(i+1))); err != nil {
						b.Fatal(err)
					}
				}
				return db
			}
			b.Run(fmt.Sprintf("recompute/chain=%d/%s", n, kind), func(b *testing.B) {
				db, opts := seeded(), eval.Options{Cache: eval.NewPlanCache()}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bad, err := eval.GoalHoldsAfter(prog, db, ast.PanicPred, store.Ins("edge", tu), opts)
					if err != nil || bad != (kind == "closing") {
						b.Fatalf("verdict %v, %v", bad, err)
					}
				}
			})
			b.Run(fmt.Sprintf("delta/chain=%d/%s", n, kind), func(b *testing.B) {
				db := seeded()
				fix, err := eval.BuildFixpoint(prog, db, ast.PanicPred, "edge", eval.Options{})
				if err != nil || fix == nil {
					b.Fatalf("no fixpoint: %v", err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bad, err := fix.Insert("edge", tu, false)
					if err != nil || bad != (kind == "closing") {
						b.Fatalf("verdict %v, %v", bad, err)
					}
				}
				if !fix.Valid() {
					b.Fatal("deciding an insert moved the store")
				}
			})
		}
	}
}
