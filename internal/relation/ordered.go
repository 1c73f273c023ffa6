package relation

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/ast"
)

// One-column ordered indexes. An ordered index holds the positions of the
// live tuples sorted by (value at its column, position), so the tuples
// whose column lies in a range are two binary searches away instead of a
// scan. Values are read from the stored tuples, never copied, and compare
// by ast.Value.Compare — the order CompOp.Eval decides comparisons in:
// numbers before strings. An index is built on the first range lookup of
// its column and kept from then on: Insert adds its entry (an append when
// the value sorts last), Delete removes it (a truncation when it is the
// last), compaction renumbers its positions in place —
// the renumbering is monotone, so the order stands and nothing is rebuilt.

// ordered is the ordered index of one column.
type ordered struct {
	col int
	pos []int32
}

// Range bounds the values v of column Col: Lo ≤ v when HasLo (Lo < v when
// LoOpen too) and v ≤ Hi when HasHi (v < Hi when HiOpen), in the order of
// ast.Value.Compare.
type Range struct {
	Col            int
	Lo, Hi         ast.Value
	HasLo, HasHi   bool
	LoOpen, HiOpen bool
}

// PointRange is the range of column col holding v alone.
func PointRange(col int, v ast.Value) Range {
	return Range{Col: col, Lo: v, Hi: v, HasLo: true, HasHi: true}
}

// Point returns the one value a range holds when both its bounds are set,
// closed and equal, and ok; a point is answered by a hash index.
func (rg Range) Point() (v ast.Value, ok bool) {
	if rg.HasLo && rg.HasHi && !rg.LoOpen && !rg.HiOpen && rg.Lo.Equal(rg.Hi) {
		return rg.Lo, true
	}
	return ast.Value{}, false
}

// Contains reports whether v lies in the range.
func (rg Range) Contains(v ast.Value) bool {
	if rg.HasLo {
		if c := v.Compare(rg.Lo); c < 0 || c == 0 && rg.LoOpen {
			return false
		}
	}
	if rg.HasHi {
		if c := v.Compare(rg.Hi); c > 0 || c == 0 && rg.HiOpen {
			return false
		}
	}
	return true
}

// Equal reports whether two ranges bound the same column alike.
func (rg Range) Equal(o Range) bool {
	same := func(has, open bool, v ast.Value, oHas, oOpen bool, ov ast.Value) bool {
		return has == oHas && (!has || open == oOpen && v.Equal(ov))
	}
	return rg.Col == o.Col && same(rg.HasLo, rg.LoOpen, rg.Lo, o.HasLo, o.LoOpen, o.Lo) &&
		same(rg.HasHi, rg.HiOpen, rg.Hi, o.HasHi, o.HiOpen, o.Hi)
}

// orderedLocked returns the ordered index of col, or nil. Caller holds mu.
func (r *Relation) orderedLocked(col int) *ordered {
	for _, o := range r.ord {
		if o.col == col {
			return o
		}
	}
	return nil
}

// ensureOrderedLocked builds the ordered index of col unless it exists.
// Caller holds the write lock.
func (r *Relation) ensureOrderedLocked(col int) {
	if r.orderedLocked(col) != nil {
		return
	}
	o := &ordered{col: col, pos: make([]int32, 0, r.count)}
	for p, t := range r.tuples {
		if t != nil {
			o.pos = append(o.pos, int32(p))
		}
	}
	// Stable: positions were collected ascending, which breaks value ties.
	slices.SortStableFunc(o.pos, func(a, b int32) int { return r.tuples[a][col].Compare(r.tuples[b][col]) })
	r.ord = append(r.ord, o)
	indexBuilds.Add(1)
}

// seek returns the index of the first entry of o not below (v, p) in the
// index order. p = -1 finds the first value ≥ v, p = math.MaxInt the first
// value > v. Caller holds mu.
func (r *Relation) seek(o *ordered, v ast.Value, p int) int {
	lo, hi := 0, len(o.pos)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		q := o.pos[m]
		if c := r.tuples[q][o.col].Compare(v); c < 0 || c == 0 && int(q) < p {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// addOrderedLocked enters the tuple just stored at pos, the last position,
// into every ordered index. Caller holds the write lock.
func (r *Relation) addOrderedLocked(pos int) {
	t := r.tuples[pos]
	for _, o := range r.ord {
		v := t[o.col]
		if n := len(o.pos); n == 0 || r.tuples[o.pos[n-1]][o.col].Compare(v) <= 0 {
			o.pos = append(o.pos, int32(pos))
			continue
		}
		o.pos = slices.Insert(o.pos, r.seek(o, v, pos), int32(pos))
	}
}

// dropOrderedLocked removes the live tuple at pos from every ordered
// index; the tuple must still be stored. Caller holds the write lock.
func (r *Relation) dropOrderedLocked(pos int) {
	t := r.tuples[pos]
	for _, o := range r.ord {
		if n := len(o.pos); o.pos[n-1] == int32(pos) {
			o.pos = o.pos[:n-1]
			continue
		}
		i := r.seek(o, t[o.col], pos)
		o.pos = slices.Delete(o.pos, i, i+1)
	}
}

// RangeAppend appends to dst the handle rows of the live tuples of one of
// the ranges — those
// whose value at the range's column lies in it — choosing the range that
// holds the fewest, so every tuple inside all the ranges is among them.
// A range with a lower bound is walked up from it, one with only an upper
// bound down from it: the tuples nearest the bound come first. It reads
// the ordered indexes of the ranges' columns, building a missing one under
// the write lock (double-checked, like LookupColsAppend), and counts one
// index probe. ranges must not be empty; an out-of-range column panics, a
// programming error like Insert's arity panic.
func (r *Relation) RangeAppend(dst [][]Handle, ranges []Range) [][]Handle {
	for _, rg := range ranges {
		if rg.Col < 0 || rg.Col >= r.arity {
			panic(fmt.Sprintf("relation: column %d out of range for %s/%d", rg.Col, r.name, r.arity))
		}
	}
	indexProbes.Add(1)
	r.mu.RLock()
	for _, rg := range ranges {
		if r.orderedLocked(rg.Col) == nil {
			// Indexes are never dropped, so the ones built here are still
			// there when the read lock is back.
			r.mu.RUnlock()
			r.mu.Lock()
			for _, each := range ranges {
				r.ensureOrderedLocked(each.Col)
			}
			r.mu.Unlock()
			r.mu.RLock()
			break
		}
	}
	defer r.mu.RUnlock()
	var best *ordered
	from, to, down := 0, 0, false
	for _, rg := range ranges {
		o := r.orderedLocked(rg.Col)
		lo, hi := 0, len(o.pos)
		if rg.HasLo {
			lo = r.seek(o, rg.Lo, boundPos(rg.LoOpen))
		}
		if rg.HasHi {
			hi = max(lo, r.seek(o, rg.Hi, boundPos(!rg.HiOpen)))
		}
		if best == nil || hi-lo < to-from {
			best, from, to, down = o, lo, hi, !rg.HasLo && rg.HasHi
		}
	}
	if down {
		for i := to - 1; i >= from; i-- {
			dst = append(dst, r.handles[best.pos[i]])
		}
		return dst
	}
	for _, p := range best.pos[from:to] {
		dst = append(dst, r.handles[p])
	}
	return dst
}

// boundPos is the position seek pairs with a bound value: past every
// entry holding the value when past is set, before them otherwise.
func boundPos(past bool) int {
	if past {
		return math.MaxInt
	}
	return -1
}
