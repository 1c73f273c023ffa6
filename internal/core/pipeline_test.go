package core

import (
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// employeeChecker builds a checker over a standard employee database with
// the paper's running constraints, added in sorted name order.
func employeeChecker(t *testing.T, seed int64, opts Options) *Checker {
	t.Helper()
	db := store.New()
	if err := workload.EmployeeDB(rand.New(rand.NewSource(seed)), db, 5, 60); err != nil {
		t.Fatal(err)
	}
	c := New(db, opts)
	addEmployeeConstraints(t, c)
	return c
}

func addEmployeeConstraints(t *testing.T, c *Checker) {
	t.Helper()
	cons := workload.StandardEmployeeConstraints()
	names := make([]string, 0, len(cons))
	for n := range cons {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if err := c.AddConstraintSource(n, cons[n]); err != nil {
			t.Fatal(err)
		}
	}
}

// A batch rejected at its last member writes nothing: the store — its
// contents, relation names and every data version — and the kept
// fixpoints are as they were, though earlier members folded their inserts
// into the fixpoints' overlays, so nothing is dropped or rebuilt, and the
// next global insert decision is a hit on the same fixpoints.
func TestRejectedBatchWritesNothing(t *testing.T) {
	// Without residual dispatch every constraint below goes global.
	c := employeeChecker(t, 7, Options{DisableResidual: true})
	// A constraint with an intermediate predicate, so its fixpoint holds
	// derived relations beyond panic itself.
	if err := c.AddConstraintSource("derived",
		`overpaid(E,D) :- emp(E,D,S) & S > 40.
		 panic :- overpaid(E,D) & ghost(D).`); err != nil {
		t.Fatal(err)
	}
	rich := func(name string) store.Update {
		return store.Ins("emp", relation.TupleOf(ast.Str(name), ast.Str("dept00"), ast.Int(50)))
	}
	// Warm: the first global emp insert builds the fixpoints.
	if rep, err := c.Check(rich("warm")); err != nil || !rep.Applied {
		t.Fatalf("warm-up check: %+v, %v", rep, err)
	}
	checkKept(t, c)
	pre := storeState(c.DB())
	before := c.Stats()

	br, err := c.ApplyBatch([]store.Update{
		store.Ins("dept", relation.Strs("annex")),
		rich("newhire"), // derives overpaid(newhire,dept00) in the overlays
		store.Del("emp", relation.TupleOf(ast.Str("e0"), ast.Str("dept00"), ast.Int(10))),
		// Violating: ghost department fails the referential constraint.
		store.Ins("emp", relation.TupleOf(ast.Str("ghostly"), ast.Str("ghost"), ast.Int(20))),
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.Applied || br.FailedAt != 3 {
		t.Fatalf("batch applied=%v failedAt=%d, want rejected at 3", br.Applied, br.FailedAt)
	}
	if got := storeState(c.DB()); got != pre {
		t.Errorf("the rejected batch wrote the store:\nbefore:\n%s\nafter:\n%s", pre, got)
	}
	mid := c.Stats()
	if mid.FixpointDrops != before.FixpointDrops || mid.FixpointRebuilds != before.FixpointRebuilds {
		t.Errorf("the rejected batch dropped or rebuilt kept fixpoints: before %+v, after %+v", before, mid)
	}
	checkKept(t, c)
	if rep, err := c.Check(rich("again")); err != nil || !rep.Applied {
		t.Fatalf("check after the batch: %+v, %v", rep, err)
	}
	after := c.Stats()
	if after.FixpointHits == mid.FixpointHits || after.FixpointRebuilds != mid.FixpointRebuilds || after.FixpointDrops != mid.FixpointDrops {
		t.Errorf("the next global insert decision was no hit on the kept fixpoints: before %+v, after %+v", mid, after)
	}
	checkKept(t, c)
}

// Concurrent readers may scan, probe and index-lookup the store while
// Apply streams updates through the parallel pipeline (run under -race).
func TestConcurrentApplyReaders(t *testing.T) {
	c := employeeChecker(t, 11, Options{})
	db := c.DB()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				db.Tuples("emp")
				db.Lookup("emp", 1, ast.Str("dept00"))
				db.Contains("dept", relation.Strs("dept01"))
				db.Probe("salRange", relation.AppendHandles(nil, relation.TupleOf(ast.Str("dept00"), ast.Int(10), ast.Int(60))))
			}
		}(g)
	}
	rng := rand.New(rand.NewSource(23))
	for _, u := range workload.EmployeeUpdates(rng, 150, 5, 0.2) {
		if _, err := c.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
}

// The cached pipeline must produce identical reports, stats and final
// stores to the uncached one on randomized update streams.
func TestParallelCacheCrossCheck(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		plain := employeeChecker(t, seed, Options{DisableCache: true})
		cached := employeeChecker(t, seed, Options{})
		rng := rand.New(rand.NewSource(seed * 100))
		updates := workload.EmployeeUpdates(rng, 120, 5, 0.25)
		// Mix in deletions so the deletion-side cache is exercised too.
		updates = append(updates,
			store.Del("emp", relation.TupleOf(ast.Str("e1"), ast.Str("dept01"), ast.Int(20))),
			store.Del("dept", relation.Strs("dept04")),
		)
		for _, u := range updates {
			rs, err1 := plain.Apply(u)
			rp, err2 := cached.Apply(u)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("seed %d %v: error mismatch %v vs %v", seed, u, err1, err2)
			}
			if err1 != nil {
				continue
			}
			if !reflect.DeepEqual(rs, rp) {
				t.Fatalf("seed %d %v: report mismatch\nuncached: %+v\ncached:   %+v", seed, u, rs, rp)
			}
		}
		ss, sp := plain.Stats(), cached.Stats()
		if !reflect.DeepEqual(ss.ByPhase, sp.ByPhase) || ss.Rejected != sp.Rejected {
			t.Errorf("seed %d: stats mismatch\nuncached: %+v\ncached:   %+v", seed, ss, sp)
		}
		if plain.DB().Dump() != cached.DB().Dump() {
			t.Errorf("seed %d: final stores differ", seed)
		}
		if ss.CacheHits != 0 || ss.CacheMisses != 0 {
			t.Errorf("seed %d: DisableCache checker touched the cache: %+v", seed, ss)
		}
	}
}

// Repeated-relation streams must hit the decision cache on the vast
// majority of dispatches (acceptance bar: >50%).
func TestCacheHitRateRepeatedStream(t *testing.T) {
	// The decision cache backs the staged pipeline; residual dispatch
	// bypasses it, so measure the cache with residuals off.
	c := employeeChecker(t, 31, Options{DisableResidual: true})
	rng := rand.New(rand.NewSource(31))
	for _, u := range workload.EmployeeUpdates(rng, 100, 5, 0.1) {
		if _, err := c.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	s := c.Stats()
	if s.CacheHits+s.CacheMisses == 0 {
		t.Fatal("cache never consulted")
	}
	if rate := s.CacheHitRate(); rate <= 0.5 {
		t.Errorf("cache hit rate %.2f (hits=%d misses=%d), want >0.5", rate, s.CacheHits, s.CacheMisses)
	}
}

// Cache invalidation: adding or removing a constraint must drop cached
// decisions so later updates see the new set.
func TestCacheInvalidationOnSetChange(t *testing.T) {
	c := employeeChecker(t, 41, Options{})
	mark := func(name string) store.Update {
		return store.Ins("proj", relation.Strs(name))
	}
	// Warm the cache: with no constraint over proj, the insert is decided
	// as unaffected for every constraint.
	if rep, err := c.Apply(mark("nobody")); err != nil || !rep.Applied {
		t.Fatalf("warmup insert rejected: %+v %v", rep, err)
	}
	// A new constraint forbidding employees on the proj list must reject
	// the same shape of insert even though the old set's decisions were
	// cached (e0 exists in the employee database).
	if err := c.AddConstraintSource("noproj", "panic :- emp(E,D,S) & proj(E)."); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Apply(mark("e0"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied {
		t.Error("insert violating the newly added constraint was applied")
	}
	if !c.RemoveConstraint("noproj") {
		t.Fatal("RemoveConstraint failed")
	}
	if rep, err := c.Apply(mark("e0")); err != nil || !rep.Applied {
		t.Errorf("insert after constraint removal rejected: %+v %v", rep, err)
	}
}
