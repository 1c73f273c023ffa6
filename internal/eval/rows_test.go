package eval

import (
	"runtime"
	"testing"

	"repro/internal/ast"
	"repro/internal/relation"
)

// An overlay that outgrows the hash tables and is then taken back must
// leave the set exactly as it was: same rows, same buckets, same
// membership — and the next overlay must build on it cleanly.
func TestRowSetTruncateRestores(t *testing.T) {
	rs := newRowSet(2, [][]int{{1}})
	pair := func(a, b int64) []relation.Handle { return relation.AppendHandles(nil, relation.Ints(a, b)) }
	for i := int64(0); i < 10; i++ {
		if !rs.add(pair(i, i%3)) {
			t.Fatalf("row %d reported present", i)
		}
	}
	if rs.add(pair(4, 1)) {
		t.Fatal("duplicate row inserted")
	}
	rs.kept = rs.n
	bucket := func(v int64) int {
		return len(rs.lookup(nil, []int{1}, []relation.Handle{relation.Intern(ast.Int(v))}))
	}
	for round := 0; round < 3; round++ {
		// 500 overlay rows force both tables through several doublings.
		for i := int64(100); i < 600; i++ {
			rs.add(pair(i, i%3))
		}
		if got := bucket(1); got != 3+167 {
			t.Fatalf("round %d: bucket 1 holds %d rows with the overlay, want 170", round, got)
		}
		rs.truncate(rs.kept)
		if rs.n != 10 || len(rs.rows) != 20 {
			t.Fatalf("round %d: %d rows (%d handles) after truncate, want 10 (20)", round, rs.n, len(rs.rows))
		}
		for v, want := range []int{4, 3, 3} {
			if got := bucket(int64(v)); got != want {
				t.Fatalf("round %d: bucket %d holds %d rows after truncate, want %d", round, v, got, want)
			}
		}
		if rs.contains(pair(100, 1)) || !rs.contains(pair(9, 0)) {
			t.Fatalf("round %d: membership wrong after truncate", round)
		}
	}
	if got := len(rs.tuples(rs.n)); got != 10 {
		t.Fatalf("tuples() = %d rows, want 10", got)
	}
}

// A 0-ary predicate (panic) holds at most the empty row.
func TestRowSetNullary(t *testing.T) {
	rs := newRowSet(0, nil)
	if rs.contains(nil) {
		t.Fatal("empty set contains the empty row")
	}
	if !rs.add(nil) || rs.add(nil) || rs.n != 1 {
		t.Fatalf("inserting the empty row twice left n=%d", rs.n)
	}
	rs.truncate(0)
	if rs.n != 0 || rs.contains(nil) {
		t.Fatal("truncate left the empty row")
	}
}

// TestIdleEvaluatorsBounded: the idle slots keep at most len(idle)
// evaluators — one put back to full slots is left to the collector — an
// evaluator keeps its scratch across a collection, and a row slice past
// maxIdleRows is dropped before an evaluator is kept.
func TestIdleEvaluatorsBounded(t *testing.T) {
	held := make([]*evaluator, 2*len(idle))
	for i := range held {
		held[i] = getEvaluator()
	}
	held[0].levels = []level{{rows: make([][]relation.Handle, 0, maxIdleRows+1)}, {rows: make([][]relation.Handle, 0, 8)}}
	for _, ev := range held {
		ev.release()
	}
	kept := 0
	for i := range idle {
		if idle[i].Load() != nil {
			kept++
		}
	}
	if kept != len(idle) {
		t.Fatalf("%d of %d returned evaluators kept, want %d", kept, len(held), len(idle))
	}
	runtime.GC()
	runtime.GC()
	if ev := idle[0].Load(); ev != held[0] {
		t.Fatal("the first idle slot lost its evaluator across two collections")
	}
	if lv := held[0].levels; lv[0].rows != nil || cap(lv[1].rows) != 8 {
		t.Errorf("kept level rows of capacity %d and %d, want the oversized one dropped and 8 kept", cap(lv[0].rows), cap(lv[1].rows))
	}
}
