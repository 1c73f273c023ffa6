package eval

import (
	"slices"

	"repro/internal/ast"
	"repro/internal/relation"
)

// rowSet is one derived relation of a kept fixpoint (see Fixpoint): its
// tuples as flat rows of interned handles, a membership index over whole
// rows, and one bucket index per column set the delta plans probe. A
// derived tuple costs its handles plus one int32 per index — a tenth of
// what a relation.Relation of cloned values spends — and values are only
// materialized, from the intern pool, for the rows a probe returns.
//
// Rows are append-only; the rows from kept on are the scratch overlay of
// the update being decided, which truncate takes back exactly.
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

func newRowSet(arity int) *rowSet {
	rs := &rowSet{arity: arity}
	rs.all.cols = make([]int, arity)
	for i := range rs.all.cols {
		rs.all.cols[i] = i
	}
	return rs
}

// ensureIndex adds the bucket index on cols unless the set has it.
func (rs *rowSet) ensureIndex(cols []int) {
	if rs.indexOn(cols) == nil {
		rs.idx = append(rs.idx, rowIndex{cols: cols})
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

func (rs *rowSet) row(i int) []relation.Handle { return rs.rows[i*rs.arity : (i+1)*rs.arity] }

// hashProj hashes a full row's projection onto cols; it agrees with
// relation.FingerprintHandles of the projected handles in that order,
// which is what a probe key is hashed with.
func hashProj(row []relation.Handle, cols []int) uint64 {
	var buf [8]relation.Handle
	key := buf[:0]
	for _, c := range cols {
		key = append(key, row[c])
	}
	return relation.FingerprintHandles(key)
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
	s := hashProj(rs.row(r), ix.cols) & uint64(len(ix.slots)-1)
	ix.next = append(ix.next, ix.slots[s])
	ix.slots[s] = int32(r + 1)
}

// unlink takes the newest row back out.
func (ix *rowIndex) unlink(rs *rowSet, r int) {
	s := hashProj(rs.row(r), ix.cols) & uint64(len(ix.slots)-1)
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

// add appends the row unless the set holds it; it reports whether the
// set grew.
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

// internRow interns vals into dst, which callers back with a stack
// array so the common small arities allocate nothing.
func internRow(dst []relation.Handle, vals []ast.Value) []relation.Handle {
	for _, v := range vals {
		dst = append(dst, relation.Intern(v))
	}
	return dst
}

func (rs *rowSet) insert(t relation.Tuple) bool {
	var buf [8]relation.Handle
	return rs.add(internRow(buf[:0], t))
}

func (rs *rowSet) contains(t relation.Tuple) bool {
	var buf [8]relation.Handle
	return rs.all.find(rs, internRow(buf[:0], t)) >= 0
}

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

// emitRow appends row r to dst as a tuple of pooled values carved out
// of *vbuf, the caller's scratch (lookup and scan start it over: a level
// of the join holds one fetch at a time). Growing *vbuf leaves earlier
// tuples pointing into the array it outgrew, which stays intact.
func (rs *rowSet) emitRow(dst []relation.Tuple, vbuf *[]ast.Value, r int) []relation.Tuple {
	lo := len(*vbuf)
	*vbuf = relation.InternedValues(*vbuf, rs.row(r))
	return append(dst, relation.Tuple((*vbuf)[lo:len(*vbuf):len(*vbuf)]))
}

// lookup appends the rows whose projection onto cols equals vals,
// through the bucket index on cols (a scan when the set has none: the
// fixpoint builds every index its delta plans name, so that is a
// fallback, not a path).
func (rs *rowSet) lookup(dst []relation.Tuple, vbuf *[]ast.Value, cols []int, vals []ast.Value) []relation.Tuple {
	*vbuf = (*vbuf)[:0]
	ix := rs.indexOn(cols)
	if ix == nil {
		return rs.scan(dst, vbuf, 0, rs.n, cols, vals)
	}
	if len(ix.slots) == 0 {
		return dst
	}
	var buf [8]relation.Handle
	key := internRow(buf[:0], vals)
	for e := ix.slots[relation.FingerprintHandles(key)&uint64(len(ix.slots)-1)]; e != 0; e = ix.next[e-1] {
		if ix.matches(rs, int(e-1), key) {
			dst = rs.emitRow(dst, vbuf, int(e-1))
		}
	}
	return dst
}

// scan appends the rows in [lo, hi) that carry vals on cols — how a
// delta literal ranges over the rows a round added.
func (rs *rowSet) scan(dst []relation.Tuple, vbuf *[]ast.Value, lo, hi int, cols []int, vals []ast.Value) []relation.Tuple {
	*vbuf = (*vbuf)[:0]
	var buf [8]relation.Handle
	key := internRow(buf[:0], vals)
	probe := rowIndex{cols: cols}
	for r := lo; r < hi; r++ {
		if probe.matches(rs, r, key) {
			dst = rs.emitRow(dst, vbuf, r)
		}
	}
	return dst
}

// tuples materializes the fixpoint proper (overlay excluded).
func (rs *rowSet) tuples() []relation.Tuple {
	var vbuf []ast.Value
	out := make([]relation.Tuple, 0, rs.kept)
	for r := 0; r < rs.kept; r++ {
		out = rs.emitRow(out, &vbuf, r)
	}
	return out
}
