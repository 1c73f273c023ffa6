package eval

import (
	"slices"

	"repro/internal/ast"
	"repro/internal/relation"
)

// rowSet is one derived relation — of a from-scratch evaluation, of a
// semi-naive round's delta, or of a kept fixpoint (see Fixpoint): its
// tuples as flat rows of interned handles, a membership index over whole
// rows, and one bucket index per column set the plans probe. A derived
// tuple costs its handles plus one int32 per index, and the join engine
// reads and writes the rows as handles: values are only materialized,
// from the intern pool, when a caller asks for the tuples (tuples).
//
// Rows are append-only; in a kept fixpoint the rows from kept on are the
// scratch overlay of the update being decided, which truncate takes back
// exactly.
type rowSet struct {
	arity int
	n     int // rows held; rows has n*arity handles
	kept  int // rows of the fixpoint proper; [kept, n) is the overlay
	// start is where the Insert in progress began to append: the overlay
	// before it is what earlier inserts of the same batch derived.
	start int
	// [lo, hi) is the delta of the semi-naive round in progress: the rows
	// the previous round appended (seededStratum).
	lo, hi int
	rows   []relation.Handle
	all    rowIndex   // every column: membership and dedup
	idx    []rowIndex // the probed column sets
}

// rowIndex is a chained hash table over the projections of a rowSet's
// rows onto cols. Chains link rows newest first through next, so taking
// the newest row back out is a pop. Entries are row+1; 0 ends a chain.
type rowIndex struct {
	cols  []int
	slots []int32
	next  []int32
}

// newRowSet returns an empty set with a bucket index on each column set
// of probed.
func newRowSet(arity int, probed [][]int) *rowSet {
	rs := &rowSet{arity: arity}
	rs.all.cols = make([]int, arity)
	for i := range rs.all.cols {
		rs.all.cols[i] = i
	}
	for _, cols := range probed {
		rs.ensureIndex(cols)
	}
	return rs
}

// ensureIndex adds the bucket index on cols, over the rows already held,
// unless the set has it.
func (rs *rowSet) ensureIndex(cols []int) {
	if rs.indexOn(cols) != nil {
		return
	}
	rs.idx = append(rs.idx, rowIndex{cols: cols})
	ix := &rs.idx[len(rs.idx)-1]
	for r := 0; r < rs.n; r++ {
		ix.link(rs, r)
	}
}

// indexOn returns the index whose column set is cols, or nil. Both are
// sorted ascending (probe columns come from the planner that way).
func (rs *rowSet) indexOn(cols []int) *rowIndex {
	if len(cols) == rs.arity {
		return &rs.all
	}
	for i := range rs.idx {
		if slices.Equal(rs.idx[i].cols, cols) {
			return &rs.idx[i]
		}
	}
	return nil
}

// row returns row i, capped so that an append to it cannot reach the
// next row.
func (rs *rowSet) row(i int) []relation.Handle {
	return rs.rows[i*rs.arity : (i+1)*rs.arity : (i+1)*rs.arity]
}

// link enters row r (the newest) into the index, doubling the table
// when rows outnumber slots.
func (ix *rowIndex) link(rs *rowSet, r int) {
	if r >= len(ix.slots) {
		size := 16
		for size <= r {
			size *= 2
		}
		ix.slots = make([]int32, size)
		ix.next = ix.next[:0]
		for i := 0; i < r; i++ {
			ix.chain(rs, i)
		}
	}
	ix.chain(rs, r)
}

func (ix *rowIndex) chain(rs *rowSet, r int) {
	s := relation.FingerprintProj(rs.row(r), ix.cols) & uint64(len(ix.slots)-1)
	ix.next = append(ix.next, ix.slots[s])
	ix.slots[s] = int32(r + 1)
}

// unlink takes the newest row back out.
func (ix *rowIndex) unlink(rs *rowSet, r int) {
	s := relation.FingerprintProj(rs.row(r), ix.cols) & uint64(len(ix.slots)-1)
	ix.slots[s] = ix.next[r]
	ix.next = ix.next[:r]
}

// matches reports whether row r carries key on the index's columns.
func (ix *rowIndex) matches(rs *rowSet, r int, key []relation.Handle) bool {
	row := rs.row(r)
	for i, c := range ix.cols {
		if row[c] != key[i] {
			return false
		}
	}
	return true
}

// find returns a row carrying key on the index's columns, or -1.
func (ix *rowIndex) find(rs *rowSet, key []relation.Handle) int {
	if len(ix.slots) == 0 {
		return -1
	}
	for e := ix.slots[relation.FingerprintHandles(key)&uint64(len(ix.slots)-1)]; e != 0; e = ix.next[e-1] {
		if ix.matches(rs, int(e-1), key) {
			return int(e - 1)
		}
	}
	return -1
}

// add appends a copy of the row unless the set holds it; it reports
// whether the set grew.
func (rs *rowSet) add(hs []relation.Handle) bool {
	if rs.all.find(rs, hs) >= 0 {
		return false
	}
	rs.rows = append(rs.rows, hs...)
	rs.all.link(rs, rs.n)
	for i := range rs.idx {
		rs.idx[i].link(rs, rs.n)
	}
	rs.n++
	return true
}

func (rs *rowSet) contains(hs []relation.Handle) bool { return rs.all.find(rs, hs) >= 0 }

// truncate drops the rows from n on, newest first.
func (rs *rowSet) truncate(n int) {
	for r := rs.n - 1; r >= n; r-- {
		rs.all.unlink(rs, r)
		for i := range rs.idx {
			rs.idx[i].unlink(rs, r)
		}
	}
	rs.n = n
	rs.rows = rs.rows[:n*rs.arity]
}

// lookup appends the rows whose projection onto cols carries key,
// through the bucket index on cols (a scan when the set has none: every
// index the plans name is built, so that is a fallback, not a path). The
// rows stay valid while the set only grows: an append that moves rows
// leaves the array they point into intact.
func (rs *rowSet) lookup(dst [][]relation.Handle, cols []int, key []relation.Handle) [][]relation.Handle {
	ix := rs.indexOn(cols)
	if ix == nil {
		return rs.scan(dst, 0, rs.n, cols, key)
	}
	if len(ix.slots) == 0 {
		return dst
	}
	for e := ix.slots[relation.FingerprintHandles(key)&uint64(len(ix.slots)-1)]; e != 0; e = ix.next[e-1] {
		if ix.matches(rs, int(e-1), key) {
			dst = append(dst, rs.row(int(e-1)))
		}
	}
	return dst
}

// scan appends the rows in [lo, hi) that carry key on cols — how a
// delta literal ranges over the rows a round added.
func (rs *rowSet) scan(dst [][]relation.Handle, lo, hi int, cols []int, key []relation.Handle) [][]relation.Handle {
	probe := rowIndex{cols: cols}
	for r := lo; r < hi; r++ {
		if probe.matches(rs, r, key) {
			dst = append(dst, rs.row(r))
		}
	}
	return dst
}

// tuples materializes the first n rows.
func (rs *rowSet) tuples(n int) []relation.Tuple {
	out := make([]relation.Tuple, n)
	vals := make([]ast.Value, n*rs.arity)
	for r := range out {
		t := vals[r*rs.arity : (r+1)*rs.arity : (r+1)*rs.arity]
		for i, h := range rs.row(r) {
			t[i] = relation.InternedValue(h)
		}
		out[r] = t
	}
	return out
}
