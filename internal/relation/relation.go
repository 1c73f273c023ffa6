// Package relation provides the relational data substrate: tuples of
// constants and named relations with hash indexes. It is deliberately
// small — an in-memory column-agnostic heap of tuples with exact-match
// indexes, plus one-column ordered indexes for range lookups — because
// the paper's algorithms only need insert, delete, scan, and indexed
// lookup.
//
// Constants are interned process-wide (see intern.go): every stored
// tuple carries a precomputed handle slice and fingerprint, so
// membership tests, dedup and index maintenance compare dense integers
// instead of rebuilding canonical key strings.
//
// Relations are safe for concurrent use: any number of readers may scan,
// probe and perform indexed lookups (lazy column-index construction
// included) while writers insert and delete. Stored tuples are never
// mutated after insertion, so snapshots handed out by Tuples/Each may be
// shared freely.
package relation

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/ast"
)

// Tuple is an ordered list of constants.
type Tuple []ast.Value

// TupleOf builds a tuple from values.
func TupleOf(vals ...ast.Value) Tuple { return Tuple(vals) }

// Ints builds a numeric tuple from integers.
func Ints(ns ...int64) Tuple {
	t := make(Tuple, len(ns))
	for i, n := range ns {
		t[i] = ast.Int(n)
	}
	return t
}

// Strs builds a symbolic tuple from strings.
func Strs(ss ...string) Tuple {
	t := make(Tuple, len(ss))
	for i, s := range ss {
		t[i] = ast.Str(s)
	}
	return t
}

// Key returns a canonical encoding of the tuple, unique per tuple value:
// one appendValueKey per value. The value encodings are prefix-free, so
// distinct tuples — arities included — encode apart.
func (t Tuple) Key() string {
	var buf [64]byte
	dst := buf[:0]
	for _, v := range t {
		dst = appendValueKey(dst, v)
	}
	return string(dst)
}

// appendValueKey appends a canonical encoding of v to dst, without
// rendering through fmt: an int64 rational is 'i', its decimal digits and
// '|'; any other rational 'q', its RatString and '|'; a string 's', its
// length, ':' and its text. Equal values encode alike (big.Rat is kept
// normalized, so 1/2 and 2/4 agree), and no encoding is a prefix of
// another's.
func appendValueKey(dst []byte, v ast.Value) []byte {
	if v.Kind == ast.StringValue {
		dst = append(dst, 's')
		dst = strconv.AppendInt(dst, int64(len(v.Str)), 10)
		dst = append(dst, ':')
		return append(dst, v.Str...)
	}
	if v.Num.IsInt() && v.Num.Num().IsInt64() {
		dst = append(dst, 'i')
		dst = strconv.AppendInt(dst, v.Num.Num().Int64(), 10)
	} else {
		dst = append(dst, 'q')
		dst = append(dst, v.Num.RatString()...)
	}
	return append(dst, '|')
}

// Equal reports whether two tuples hold the same constants.
func (t Tuple) Equal(u Tuple) bool {
	if len(t) != len(u) {
		return false
	}
	for i := range t {
		if !t[i].Equal(u[i]) {
			return false
		}
	}
	return true
}

// Clone returns a copy of the tuple.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// Terms converts the tuple to a list of constant terms.
func (t Tuple) Terms() []ast.Term {
	out := make([]ast.Term, len(t))
	for i, v := range t {
		out[i] = ast.C(v)
	}
	return out
}

// String renders the tuple as (v1,…,vn).
func (t Tuple) String() string {
	parts := make([]string, len(t))
	for i, v := range t {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// TermsToTuple converts a list of ground terms into a tuple; it fails if
// any term is a variable.
func TermsToTuple(terms []ast.Term) (Tuple, error) {
	t := make(Tuple, len(terms))
	for i, tm := range terms {
		if tm.IsVar() {
			return nil, fmt.Errorf("relation: term %s is not ground", tm)
		}
		t[i] = tm.Const
	}
	return t, nil
}

// Relation is a named set of same-arity tuples. Insertion order is
// preserved for deterministic iteration. The zero value is not usable;
// call New.
type Relation struct {
	name  string
	arity int

	mu      sync.RWMutex
	tuples  []Tuple    // live tuples in insertion order, nil holes after delete
	handles [][]Handle // interned handles, parallel to tuples (nil holes too)
	count   int        // number of live tuples
	holes   int        // number of nil holes in tuples
	// index maps a whole-tuple fingerprint to the newest position holding
	// it, and next (parallel to tuples) links each position to the previous
	// one of its fingerprint, -1 ending the chain. Candidates are verified
	// by handle comparison (collisions cost a probe, never an answer).
	// Positions of deleted tuples linger as nil holes until compaction. The
	// index answers membership alone, so its order does not matter.
	index map[uint64]int32
	next  []int32
	// midx holds the lazily built per-column-set hash indexes, keyed by
	// column bitmask; see index.go.
	midx map[uint64]*multiIndex
	// ord holds the lazily built one-column ordered indexes; see ordered.go.
	ord []*ordered
	// version counts the writes that changed the relation's contents;
	// see Version.
	version atomic.Uint64
}

// New creates an empty relation with the given name and arity.
func New(name string, arity int) *Relation {
	return &Relation{name: name, arity: arity, index: map[uint64]int32{}, midx: map[uint64]*multiIndex{}}
}

// Name returns the relation name.
func (r *Relation) Name() string { return r.name }

// Arity returns the relation arity.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.count
}

// Version returns the relation's data version: a counter that advances
// on every Insert and Delete that changes the contents and never
// otherwise. A reader that remembers the version it saw can tell later
// whether what it derived from the contents still stands (a kept
// evaluation fixpoint does), without subscribing to the writers.
func (r *Relation) Version() uint64 { return r.version.Load() }

// findLocked returns the live position holding the tuple with the given
// handles, or -1. Caller holds mu.
func (r *Relation) findLocked(fp uint64, hs []Handle) int {
	pos, ok := r.index[fp]
	if !ok {
		return -1
	}
	for ; pos >= 0; pos = r.next[pos] {
		if r.tuples[pos] != nil && slices.Equal(r.handles[pos], hs) {
			return int(pos)
		}
	}
	return -1
}

// chainLocked makes pos the newest position of fingerprint fp, linking
// the previous one behind it. Caller holds the write lock.
func (r *Relation) chainLocked(pos int, fp uint64) {
	prev, ok := r.index[fp]
	if !ok {
		prev = -1
	}
	r.next[pos] = prev
	r.index[fp] = int32(pos)
}

// Contains reports whether the relation holds t.
func (r *Relation) Contains(t Tuple) bool {
	var scratch [8]Handle
	hs := AppendHandles(scratch[:0], t)
	return r.ContainsHandles(hs)
}

// ContainsHandles reports whether the relation holds the tuple whose
// interned handles are hs.
func (r *Relation) ContainsHandles(hs []Handle) bool {
	fp := FingerprintHandles(hs)
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.findLocked(fp, hs) >= 0
}

// Insert adds t; it reports whether the relation changed (false if the
// tuple was already present). It panics on arity mismatch, which is a
// programming error. The tuple is copied: callers may reuse t's backing
// array afterwards.
func (r *Relation) Insert(t Tuple) bool {
	if len(t) != r.arity {
		panic(fmt.Sprintf("relation: inserting arity-%d tuple into %s/%d", len(t), r.name, r.arity))
	}
	// Intern into stack scratch and dedup first: semi-naive rounds emit
	// mostly duplicates, and only a new tuple needs handles of its own.
	var scratch [8]Handle
	hs := AppendHandles(scratch[:0], t)
	fp := FingerprintHandles(hs)
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.findLocked(fp, hs) >= 0 {
		return false
	}
	own := make([]Handle, len(hs)) // non-nil even for a 0-ary tuple: nil marks a hole
	copy(own, hs)
	pos := len(r.tuples)
	r.tuples = append(r.tuples, t.Clone())
	r.handles = append(r.handles, own)
	r.next = append(r.next, -1)
	r.chainLocked(pos, fp)
	r.count++
	for _, mi := range r.midx {
		pk := FingerprintProj(own, mi.cols)
		mi.buckets[pk] = append(mi.buckets[pk], pos)
	}
	r.addOrderedLocked(pos)
	r.version.Add(1)
	return true
}

// Delete removes t; it reports whether the tuple was present.
func (r *Relation) Delete(t Tuple) bool {
	var scratch [8]Handle
	return r.DeleteHandles(AppendHandles(scratch[:0], t))
}

// DeleteHandles removes the tuple whose handle row is hs; it reports
// whether the tuple was present.
func (r *Relation) DeleteHandles(hs []Handle) bool {
	fp := FingerprintHandles(hs)
	r.mu.Lock()
	defer r.mu.Unlock()
	pos := r.findLocked(fp, hs)
	if pos < 0 {
		return false
	}
	r.dropOrderedLocked(pos)
	r.tuples[pos] = nil
	r.handles[pos] = nil
	r.count--
	r.holes++
	r.version.Add(1)
	if r.holes > r.count && r.holes > 64 {
		r.compactLocked()
	}
	return true
}

// compactLocked removes the holes: it shifts the live entries down in
// place and refills the indexes. Caller holds the write lock. Every
// reader of tuples and handles copies what it needs out under mu (Delete
// writes its holes in place too), so nothing handed out shares the
// arrays. Hash indexes are refilled, not dropped: a signature once
// requested stays warm. Ordered indexes are renumbered: a live tuple keeps
// its rank. Neither counts as an index build. The arrays and maps are
// reallocated at live size only when the live entries fill less than a
// quarter of them, so what a relation once held is not retained.
func (r *Relation) compactLocked() {
	n := 0
	for i, t := range r.tuples {
		if t != nil {
			// next is relinked below: until then it maps old positions to new.
			r.next[i] = int32(n)
			r.tuples[n], r.handles[n] = t, r.handles[i]
			n++
		}
	}
	for _, o := range r.ord {
		for i, p := range o.pos {
			o.pos[i] = r.next[p]
		}
	}
	clear(r.tuples[n:])
	clear(r.handles[n:])
	r.tuples, r.handles, r.next = r.tuples[:n], r.handles[:n], r.next[:n]
	fresh := n < cap(r.tuples)/4
	if fresh {
		r.tuples, r.handles, r.next = slices.Clone(r.tuples), slices.Clone(r.handles), slices.Clone(r.next)
		r.index = make(map[uint64]int32, n)
		for _, o := range r.ord {
			o.pos = slices.Clone(o.pos)
		}
	} else {
		clear(r.index)
	}
	r.count, r.holes = n, 0
	for i, hs := range r.handles {
		r.chainLocked(i, FingerprintHandles(hs))
	}
	for _, mi := range r.midx {
		mi.refill(r.handles, fresh)
	}
}

// snapshot returns the live tuples in insertion order. The slice is fresh
// but the tuples are shared (they are immutable once stored).
func (r *Relation) snapshot() []Tuple {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]Tuple, 0, r.count)
	for _, t := range r.tuples {
		if t != nil {
			out = append(out, t)
		}
	}
	return out
}

// TuplesAppend appends the handle rows of the live tuples, in insertion
// order, to dst and returns the extended slice. The rows are the
// relation's own — never modified once stored — so the caller must not
// modify them either.
func (r *Relation) TuplesAppend(dst [][]Handle) [][]Handle {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, hs := range r.handles {
		if hs != nil {
			dst = append(dst, hs)
		}
	}
	return dst
}

// Each calls f for every tuple in insertion order; f must not mutate the
// tuples. Iteration stops early if f returns false. f runs outside the
// relation's lock (on a snapshot), so it may call back into the relation.
func (r *Relation) Each(f func(Tuple) bool) {
	for _, t := range r.snapshot() {
		if !f(t) {
			return
		}
	}
}

// Tuples returns a snapshot slice of all tuples in insertion order.
func (r *Relation) Tuples() []Tuple { return r.snapshot() }

// Lookup returns the tuples whose column col equals v — the one-column
// special case of LookupCols, kept for its lighter call sites.
func (r *Relation) Lookup(col int, v ast.Value) []Tuple {
	return r.LookupCols([]int{col}, []ast.Value{v})
}

// Clone returns a deep copy of the relation (indexes are rebuilt lazily).
func (r *Relation) Clone() *Relation {
	out := New(r.name, r.arity)
	r.Each(func(t Tuple) bool { out.Insert(t); return true })
	return out
}

// Equal reports whether two relations hold the same set of tuples.
func (r *Relation) Equal(o *Relation) bool {
	if r.Len() != o.Len() {
		return false
	}
	eq := true
	r.Each(func(t Tuple) bool {
		if !o.Contains(t) {
			eq = false
			return false
		}
		return true
	})
	return eq
}

// String renders the relation as name{(..),(..)} with tuples in insertion
// order.
func (r *Relation) String() string {
	var parts []string
	r.Each(func(t Tuple) bool { parts = append(parts, t.String()); return true })
	return r.name + "{" + strings.Join(parts, ",") + "}"
}
