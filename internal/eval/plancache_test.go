package eval

import (
	"sync"
	"testing"

	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
)

// TestPlanCacheDistinctStores shares one memo across two stores whose
// shapes disagree: q has another arity in one of them. A compiled plan
// reads q at the atom's arity whatever the store, so one compilation
// answers for both.
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
	// A different shape: q has arity 2, so the q(X) subgoal can never
	// match stored tuples.
	bad := store.New()
	bad.MustEnsure("e", 1)
	bad.MustEnsure("q", 2)
	if _, err := bad.Insert("e", relation.Ints(7)); err != nil {
		t.Fatal(err)
	}
	if _, err := bad.Insert("q", relation.Ints(7, 8)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the second round reuses the compilation
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

// TestPlanCacheGoalAndIndexModeKeys verifies the key dimensions beside
// the program: the same program compiled for full evaluation, for a goal
// check, and for the scan arm are three distinct entries that do not
// answer for each other, and asking again compiles nothing.
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
	if n := len(cache.entries); n != 3 {
		t.Fatalf("%d entries, want 3 (distinct keys per goal and index mode)", n)
	}
	if ok, err := GoalHoldsWith(prog, db, "q", Options{Cache: cache}); err != nil || !ok || len(cache.entries) != 3 {
		t.Fatalf("GoalHolds(q) again = %v, %v with %d entries; want true from the 3 compiled", ok, err, len(cache.entries))
	}
}

// TestPlanCacheConcurrentEval hammers one shared memo from parallel
// evaluators while a writer mutates the store — inserts, deletes, Replace
// and probes that build an index — so the first-compile and served paths
// race under -race.
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
				if err := db.ReplaceRange("f", 1, relation.Range{}, []relation.Tuple{relation.Ints(i % 4)}); err != nil {
					t.Error(err)
					return
				}
			case 7:
				// A probe on a fresh column set builds its index lazily.
				db.LookupColsAppend(nil, "edge", 2, []int{0}, relation.AppendHandles(nil, relation.Ints(i%5)))
			}
		}
	}()
	wg.Wait()
	if len(cache.entries) == 0 {
		t.Fatal("concurrent run never touched the memo")
	}
}
