package residual

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
)

func TestCachePatternReuse(t *testing.T) {
	c := NewCache()
	p := parser.MustParseProgram("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.")
	db := store.New()
	if _, err := db.Insert("r", relation.Ints(100)); err != nil {
		t.Fatal(err)
	}
	// First tuple of the pattern compiles; every later tuple hits the same
	// entry because no position is pinned.
	r1, hit, ok := c.For(p, store.Ins("l", relation.Ints(1, 2)), db, Options{})
	if !ok || hit || r1 == nil {
		t.Fatalf("first lookup: hit=%v ok=%v", hit, ok)
	}
	r2, hit, ok := c.For(p, store.Ins("l", relation.Ints(90, 110)), db, Options{})
	if !ok || !hit || r2 != r1 {
		t.Fatalf("second lookup: hit=%v ok=%v same=%v", hit, ok, r2 == r1)
	}
	// A different polarity is its own pattern.
	if _, hit, ok = c.For(p, store.Del("l", relation.Ints(1, 2)), db, Options{}); !ok || hit {
		t.Fatalf("delete pattern: hit=%v ok=%v", hit, ok)
	}
	// Index mode participates in the key.
	if _, hit, ok = c.For(p, store.Ins("l", relation.Ints(1, 2)), db, Options{DisableIndexes: true}); !ok || hit {
		t.Fatalf("noindex arm: hit=%v ok=%v", hit, ok)
	}
	hits, misses, compiled, entries := c.Stats()
	if hits != 1 || misses != 3 || compiled != 3 || entries != 3 {
		t.Errorf("stats = %d/%d/%d/%d, want 1/3/3/3", hits, misses, compiled, entries)
	}
}

func TestCachePinnedValuesSplitEntries(t *testing.T) {
	c := NewCache()
	p := parser.MustParseProgram("panic :- emp(E,sales,S) & emp(E,accounting,S).")
	db := store.New()
	ins := func(dept string) store.Update {
		return store.Ins("emp", relation.Strs("ann", dept, "50"))
	}
	// sales matches the pinned constant of one occurrence; toy matches
	// neither. Distinct pinned projections, distinct compilations.
	if _, hit, ok := c.For(p, ins("sales"), db, Options{}); !ok || hit {
		t.Fatalf("sales: hit=%v ok=%v", hit, ok)
	}
	if _, hit, ok := c.For(p, ins("toy"), db, Options{}); !ok || hit {
		t.Fatalf("toy first: hit=%v ok=%v", hit, ok)
	}
	if _, hit, ok := c.For(p, ins("toy"), db, Options{}); !ok || !hit {
		t.Fatalf("toy repeat: hit=%v ok=%v", hit, ok)
	}
	// Unpinned positions do not split: a different name hits sales' entry.
	if _, hit, ok := c.For(p, store.Ins("emp", relation.Strs("bob", "sales", "90")), db, Options{}); !ok || !hit {
		t.Fatalf("sales other name: hit=%v ok=%v", hit, ok)
	}
}

func TestCacheIneligibleCountsAsMiss(t *testing.T) {
	c := NewCache()
	p := parser.MustParseProgram("panic :- boss(E,E).\nboss(E,M) :- mgr(E,M).")
	db := store.New()
	for i := 0; i < 3; i++ {
		if res, hit, ok := c.For(p, store.Ins("mgr", relation.Strs("a", "b")), db, Options{}); ok || hit || res != nil {
			t.Fatalf("IDB constraint served a residual: %v %v %v", res, hit, ok)
		}
	}
	hits, misses, compiled, entries := c.Stats()
	if hits != 0 || misses != 3 || compiled != 0 || entries != 0 {
		t.Errorf("stats = %d/%d/%d/%d, want 0/3/0/0", hits, misses, compiled, entries)
	}
}

func TestCacheInvalidateAndResetStats(t *testing.T) {
	c := NewCache()
	p := parser.MustParseProgram("panic :- p(X) & q(X).")
	db := store.New()
	u := store.Ins("p", relation.Strs("a"))
	if _, _, ok := c.For(p, u, db, Options{}); !ok {
		t.Fatal("pattern ineligible")
	}
	if _, hit, _ := c.For(p, u, db, Options{}); !hit {
		t.Fatal("warm lookup missed")
	}
	c.Invalidate()
	if _, hit, _ := c.For(p, u, db, Options{}); hit {
		t.Error("lookup hit after Invalidate")
	}
	c.ResetStats()
	if hits, misses, compiled, entries := c.Stats(); hits != 0 || misses != 0 || compiled != 0 || entries != 1 {
		t.Errorf("after ResetStats: %d/%d/%d/%d, want 0/0/0/1 (entries survive)", hits, misses, compiled, entries)
	}
}

func TestCacheSchemaVersionMiss(t *testing.T) {
	c := NewCache()
	p := parser.MustParseProgram("panic :- p(X) & q(X).")
	db := store.New()
	u := store.Ins("p", relation.Strs("a"))
	if _, _, ok := c.For(p, u, db, Options{}); !ok {
		t.Fatal("pattern ineligible")
	}
	// Creating a relation bumps the schema version: the compiled arity
	// folds may be stale, so the next lookup must recompile.
	if _, err := db.Ensure("q", 1); err != nil {
		t.Fatal(err)
	}
	if _, hit, _ := c.For(p, u, db, Options{}); hit {
		t.Error("lookup hit across a schema change")
	}
	// A mirror refresh — Replace over the relation that now exists —
	// changes no arity: the compiled residual is served again, and it
	// reads the swapped-in contents (it names relations, holds none).
	if err := db.Replace("q", 1, []relation.Tuple{relation.Strs("a")}); err != nil {
		t.Fatal(err)
	}
	res, hit, _ := c.For(p, u, db, Options{})
	if !hit {
		t.Error("same-arity Replace cost a recompilation")
	}
	if !res.Decide(db, u.Tuple) {
		t.Error("cached residual does not see the replaced contents")
	}
}

// TestCacheConcurrentAccess exercises the cache and the shared compiled
// residuals from many goroutines; run under -race this is the
// concurrency contract of core's parallel dispatch.
func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache()
	parsed := []*ast.Program{
		parser.MustParseProgram("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."),
		parser.MustParseProgram("panic :- p(X,X)."),
		parser.MustParseProgram("panic :- emp(E,D) & not dept(D)."),
	}
	db := store.New()
	if _, err := db.Insert("r", relation.Ints(50)); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("emp", relation.Strs("ann", "toy")); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 3 {
				case 0:
					u := store.Ins("l", relation.Ints(int64(i%7), int64(40+i%9)))
					if res, _, ok := c.For(parsed[0], u, db, Options{}); ok {
						res.Decide(db, u.Tuple)
					}
				case 1:
					u := store.Ins("p", relation.Strs(fmt.Sprint(w), fmt.Sprint(i%2*w)))
					if res, _, ok := c.For(parsed[1], u, db, Options{}); ok {
						res.Decide(db, u.Tuple)
					}
				default:
					u := store.Del("dept", relation.Strs("toy"))
					if res, _, ok := c.For(parsed[2], u, db, Options{}); ok {
						res.Decide(db, u.Tuple)
					}
				}
				if i%50 == 0 && w == 0 {
					c.ResetStats()
				}
			}
		}(w)
	}
	wg.Wait()
	if hits, misses, _, _ := c.Stats(); hits+misses == 0 {
		t.Error("cache never consulted")
	}
}
