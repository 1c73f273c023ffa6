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
	// First tuple of the pattern compiles; every later tuple of the
	// pattern hits the same entry.
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
	// A constant of an occurrence is a guard, not part of the key: tuples
	// with different values there share one entry.
	emp := parser.MustParseProgram("panic :- emp(E,sales,S) & emp(E,accounting,S).")
	first, _, _ := c.For(emp, store.Ins("emp", relation.Strs("ann", "sales", "50")), db, Options{})
	if again, hit, ok := c.For(emp, store.Ins("emp", relation.Strs("bob", "toy", "90")), db, Options{}); !ok || !hit || again != first {
		t.Errorf("another value at a constant's position: hit=%v ok=%v same=%v", hit, ok, again == first)
	}
	if n := len(c.entries); n != 4 {
		t.Errorf("%d entries, want 4", n)
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
	for key, res := range c.entries {
		if res != nil {
			t.Errorf("%+v: an ineligible pattern memoized %v", key, res)
		}
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
			}
		}(w)
	}
	wg.Wait()
	if n := len(c.entries); n != 3 {
		t.Errorf("%d entries, want one per pattern: 3", n)
	}
}
