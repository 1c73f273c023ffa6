package eval

import (
	"sync"
	"testing"

	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
)

// TestPlanCacheSchemaInvalidation pins the coherence contract: data-only
// updates — a Replace over an existing relation among them, which keeps
// its arity and its indexes — reuse the cached plan, while every
// structural store change — relation creation (by Ensure or by Replace)
// and EnsureIndex — advances the schema version and forces a recompile.
func TestPlanCacheSchemaInvalidation(t *testing.T) {
	prog := parser.MustParseProgram("p(X) :- e(X) & not f(X).")
	db := store.New()
	db.MustEnsure("e", 1)
	db.MustEnsure("f", 1)
	if _, err := db.Insert("e", relation.Ints(1)); err != nil {
		t.Fatal(err)
	}
	cache := NewPlanCache()
	evalN := func(want int) {
		t.Helper()
		res, err := EvalWith(prog, db, Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.Tuples("p")); got != want {
			t.Fatalf("derived %d p-tuples, want %d", got, want)
		}
	}
	misses := func() int64 {
		_, m, _ := cache.Stats()
		return m
	}

	evalN(1)
	if m := misses(); m != 1 {
		t.Fatalf("first eval: misses = %d, want 1", m)
	}
	// Data-only change: same schema version, cached plan reused.
	if _, err := db.Insert("e", relation.Ints(2)); err != nil {
		t.Fatal(err)
	}
	evalN(2)
	if m := misses(); m != 1 {
		t.Fatalf("after data-only insert: misses = %d, want 1 (plan must be reused)", m)
	}
	// Replace over an existing relation swaps contents, not shape: the
	// plan is reused (it names relations, it does not hold them) and the
	// answer reflects the replaced contents.
	if err := db.Replace("f", 1, []relation.Tuple{relation.Ints(2)}); err != nil {
		t.Fatal(err)
	}
	evalN(1)
	if m := misses(); m != 1 {
		t.Fatalf("after same-arity Replace: misses = %d, want 1 (plan must be reused)", m)
	}
	// EnsureIndex bumps the schema version (a fresh compile may now pick
	// the index).
	if err := db.EnsureIndex("e", 0); err != nil {
		t.Fatal(err)
	}
	evalN(1)
	if m := misses(); m != 2 {
		t.Fatalf("after EnsureIndex: misses = %d, want 2", m)
	}
	// Relation creation likewise: a new relation can flip a compiled
	// arity-mismatch mark.
	db.MustEnsure("g", 2)
	evalN(1)
	if m := misses(); m != 3 {
		t.Fatalf("after relation creation: misses = %d, want 3", m)
	}
	// ... also when it is Replace that creates it.
	if err := db.Replace("h", 1, []relation.Tuple{relation.Ints(9)}); err != nil {
		t.Fatal(err)
	}
	evalN(1)
	if m := misses(); m != 4 {
		t.Fatalf("after creating Replace: misses = %d, want 4", m)
	}
	// Steady state again: one more eval is a pure hit.
	evalN(1)
	if m := misses(); m != 4 {
		t.Fatalf("steady state: misses = %d, want 4", m)
	}
}

// TestPlanCacheDistinctStores shares one cache across two stores whose
// shapes disagree: the plan compiled against one bakes in an
// arity-mismatch mark the other must not inherit. This is the aliasing
// the store identity in the cache key prevents — the schema counters of
// fresh stores start equal.
func TestPlanCacheDistinctStores(t *testing.T) {
	prog := parser.MustParseProgram("p(X) :- e(X) & q(X).")
	cache := NewPlanCache()

	good := store.New()
	good.MustEnsure("e", 1)
	good.MustEnsure("q", 1)
	for _, rel := range []string{"e", "q"} {
		if _, err := good.Insert(rel, relation.Ints(7)); err != nil {
			t.Fatal(err)
		}
	}
	// Same schema version as good (both bumped twice), different shape:
	// q has arity 2, so the q(X) subgoal can never match stored tuples.
	bad := store.New()
	bad.MustEnsure("e", 1)
	bad.MustEnsure("q", 2)
	if _, err := bad.Insert("e", relation.Ints(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Insert("q", relation.Ints(7, 8)); err != nil {
		t.Fatal(err)
	}
	if good.SchemaVersion() != bad.SchemaVersion() {
		t.Fatalf("test setup drifted: schema versions %d vs %d should collide",
			good.SchemaVersion(), bad.SchemaVersion())
	}

	for i := 0; i < 2; i++ { // second round hits the cache
		resGood, err := EvalWith(prog, good, Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(resGood.Tuples("p")); n != 1 {
			t.Fatalf("round %d: good store derived %d p-tuples, want 1", i, n)
		}
		resBad, err := EvalWith(prog, bad, Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		if n := len(resBad.Tuples("p")); n != 0 {
			t.Fatalf("round %d: arity-mismatched store derived %d p-tuples, want 0", i, n)
		}
	}
}

// TestPlanCacheGoalAndIndexModeKeys verifies the remaining key
// dimensions: the same program cached for full evaluation, for a goal
// check, and for the scan arm are three distinct entries that do not
// answer for each other.
func TestPlanCacheGoalAndIndexModeKeys(t *testing.T) {
	prog := parser.MustParseProgram("p(X) :- e(X).\nq(X) :- p(X).")
	db := store.New()
	if _, err := db.Insert("e", relation.Ints(1)); err != nil {
		t.Fatal(err)
	}
	cache := NewPlanCache()
	if _, err := EvalWith(prog, db, Options{Cache: cache}); err != nil {
		t.Fatal(err)
	}
	if ok, err := GoalHoldsWith(prog, db, "q", Options{Cache: cache}); err != nil || !ok {
		t.Fatalf("GoalHolds(q) = %v, %v; want true", ok, err)
	}
	if _, err := EvalWith(prog, db, Options{Cache: cache, DisableIndexes: true}); err != nil {
		t.Fatal(err)
	}
	hits, misses, entries := cache.Stats()
	if hits != 0 || misses != 3 || entries != 3 {
		t.Fatalf("hits=%d misses=%d entries=%d, want 0/3/3 (distinct keys per goal and index mode)",
			hits, misses, entries)
	}
	cache.Invalidate()
	if _, _, entries := cache.Stats(); entries != 0 {
		t.Fatalf("Invalidate left %d entries", entries)
	}
}

// TestPlanCacheConcurrentEval hammers one shared cache from parallel
// evaluators while a writer mutates the store — inserts, deletes, and
// schema-bumping Replace/EnsureIndex calls — so the hit, miss,
// invalidation and double-compile paths all race under -race.
func TestPlanCacheConcurrentEval(t *testing.T) {
	progs := []string{
		"p(X) :- e(X) & not f(X).",
		"p(X,Y) :- e(X) & e(Y) & X < Y.",
		"reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- reach(X,Z) & edge(Z,Y).\np(X) :- reach(X,X).",
	}
	db := store.New()
	db.MustEnsure("e", 1)
	db.MustEnsure("f", 1)
	db.MustEnsure("edge", 2)
	cache := NewPlanCache()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			prog := parser.MustParseProgram(progs[w%len(progs)])
			for i := 0; i < 40; i++ {
				if _, err := EvalWith(prog, db, Options{Cache: cache}); err != nil {
					t.Error(err)
					return
				}
				if _, err := GoalHoldsWith(prog, db, "p", Options{Cache: cache}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < 40; i++ {
			if _, err := db.Insert("e", relation.Ints(i%5)); err != nil {
				t.Error(err)
				return
			}
			if _, err := db.Insert("edge", relation.Ints(i%5, (i+1)%5)); err != nil {
				t.Error(err)
				return
			}
			db.Delete("f", relation.Ints(i%3))
			switch i % 10 {
			case 3:
				if err := db.Replace("f", 1, []relation.Tuple{relation.Ints(i % 4)}); err != nil {
					t.Error(err)
					return
				}
			case 7:
				if err := db.EnsureIndex("edge", 0); err != nil {
					t.Error(err)
					return
				}
				cache.Invalidate()
			}
		}
	}()
	wg.Wait()
	if hits, misses, _ := cache.Stats(); hits+misses == 0 {
		t.Fatal("concurrent run never touched the cache")
	}
}
