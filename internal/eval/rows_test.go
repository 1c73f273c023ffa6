package eval

import (
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
