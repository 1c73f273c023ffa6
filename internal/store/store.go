// Package store provides a named-relation database with update
// application, snapshots, and per-relation access accounting. The access
// counters (Reads, TotalReads) let a test see how much of each relation a
// checking strategy touched.
//
// A Store is safe for concurrent use: relation creation is guarded by an
// RWMutex, the relations themselves are internally synchronized (see
// internal/relation), and the access counters sit behind their own mutex
// so concurrent readers charge reads without racing.
package store

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/ast"
	"repro/internal/relation"
)

// Store is a mutable database: a set of named relations. The zero value
// is not usable; call New.
type Store struct {
	// mu guards rels, the relations by name; a relation's arity is fixed
	// when it is created.
	mu   sync.RWMutex
	rels map[string]*relation.Relation
	// readsMu guards reads, the tuples handed out per relation.
	readsMu sync.Mutex
	reads   map[string]int64
}

// New creates an empty store.
func New() *Store {
	return &Store{
		rels:  map[string]*relation.Relation{},
		reads: map[string]int64{},
	}
}

// DataVersion returns the named relation's data version (see
// relation.Version): it advances whenever the relation's contents
// change — Insert, Delete and ReplaceRange — and is 0 for an
// absent relation. Equal versions at two moments mean equal contents.
func (s *Store) DataVersion(name string) uint64 {
	r := s.get(name)
	if r == nil {
		return 0
	}
	return r.Version()
}

// get returns the named relation or nil, under the read lock.
func (s *Store) get(name string) *relation.Relation {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.rels[name]
}

// getArity returns the named relation when it is stored with the given
// arity, nil otherwise: what an atom of that arity reads of it.
func (s *Store) getArity(name string, arity int) *relation.Relation {
	if r := s.get(name); r != nil && r.Arity() == arity {
		return r
	}
	return nil
}

// charge adds n tuple reads to the named relation's counter. A probe
// that read nothing takes no lock.
func (s *Store) charge(name string, n int64) {
	if n == 0 {
		return
	}
	s.readsMu.Lock()
	s.reads[name] += n
	s.readsMu.Unlock()
}

// Ensure returns the relation named name, creating it with the given
// arity if absent. It fails if the relation exists with another arity.
func (s *Store) Ensure(name string, arity int) (*relation.Relation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ensure(name, arity)
}

// ensure is Ensure under s.mu.
func (s *Store) ensure(name string, arity int) (*relation.Relation, error) {
	if r, ok := s.rels[name]; ok {
		if err := arityConflict(r, arity); err != nil {
			return nil, err
		}
		return r, nil
	}
	r := relation.New(name, arity)
	s.rels[name] = r
	return r, nil
}

// Accepts returns the error Insert refuses a tuple of the given arity
// with — name exists with another — and nil otherwise. It creates nothing.
func (s *Store) Accepts(name string, arity int) error { return arityConflict(s.get(name), arity) }

func arityConflict(r *relation.Relation, arity int) error {
	if r != nil && r.Arity() != arity {
		return fmt.Errorf("store: relation %s has arity %d, requested %d", r.Name(), r.Arity(), arity)
	}
	return nil
}

// MustEnsure is Ensure that panics on arity conflicts.
func (s *Store) MustEnsure(name string, arity int) *relation.Relation {
	r, err := s.Ensure(name, arity)
	if err != nil {
		panic(err)
	}
	return r
}

// Relation returns the named relation, or nil if absent.
func (s *Store) Relation(name string) *relation.Relation { return s.get(name) }

// Names returns the sorted relation names.
func (s *Store) Names() []string {
	s.mu.RLock()
	out := make([]string, 0, len(s.rels))
	for n := range s.rels {
		out = append(out, n)
	}
	s.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Insert adds a tuple, creating the relation on first use.
func (s *Store) Insert(name string, t relation.Tuple) (bool, error) {
	r, err := s.Ensure(name, len(t))
	if err != nil {
		return false, err
	}
	return r.Insert(t), nil
}

// Delete removes a tuple; deleting from an absent relation is a no-op.
func (s *Store) Delete(name string, t relation.Tuple) bool {
	r := s.get(name)
	if r == nil {
		return false
	}
	return r.Delete(t)
}

// Contains reports whether the named relation holds t.
func (s *Store) Contains(name string, t relation.Tuple) bool {
	r := s.get(name)
	return r != nil && r.Contains(t)
}

// Tuples returns a snapshot of the named relation's tuples and charges
// the read counter. Absent relations are empty.
func (s *Store) Tuples(name string) []relation.Tuple {
	r := s.get(name)
	if r == nil {
		return nil
	}
	ts := r.Tuples()
	s.charge(name, int64(len(ts)))
	return ts
}

// TuplesAppend appends the handle rows of the named arity-ary relation's
// tuples to dst (see relation.TuplesAppend), charging only the appended
// tuples — the join engine's scan. An absent relation, or one stored with
// another arity, appends nothing.
func (s *Store) TuplesAppend(dst [][]relation.Handle, name string, arity int) [][]relation.Handle {
	r := s.getArity(name, arity)
	if r == nil {
		return dst
	}
	before := len(dst)
	dst = r.TuplesAppend(dst)
	s.charge(name, int64(len(dst)-before))
	return dst
}

// LookupColsAppend appends the handle rows of the named arity-ary
// relation's tuples whose projection onto the sorted columns cols carries
// the handles key (see relation.LookupColsAppend), charging only the
// appended tuples — the join engine's indexed probe. An absent relation,
// or one stored with another arity, appends nothing.
func (s *Store) LookupColsAppend(dst [][]relation.Handle, name string, arity int, cols []int, key []relation.Handle) [][]relation.Handle {
	r := s.getArity(name, arity)
	if r == nil {
		return dst
	}
	before := len(dst)
	dst = r.LookupColsAppend(dst, cols, key)
	s.charge(name, int64(len(dst)-before))
	return dst
}

// Probe reports membership of the tuple with handles hs in the named
// relation, charging one read (unlike Contains, which is a free
// structural check). The join engine uses Probe so that negated-subgoal
// checks are accounted. A relation stored with another arity than
// len(hs) holds no such tuple.
func (s *Store) Probe(name string, hs []relation.Handle) bool {
	s.charge(name, 1)
	r := s.getArity(name, len(hs))
	return r != nil && r.ContainsHandles(hs)
}

// FirstCols returns the handle row of one tuple of the named arity-ary
// relation whose projection onto cols equals vals (see
// relation.FirstCols), or nil — also when the relation is absent or stored
// with another arity. Like Probe it charges one read: an existence probe
// hands out one tuple at most.
func (s *Store) FirstCols(name string, arity int, cols []int, vals []ast.Value, same [][2]int) []relation.Handle {
	s.charge(name, 1)
	r := s.getArity(name, arity)
	if r == nil {
		return nil
	}
	return r.FirstCols(cols, vals, same)
}

// RangeAppend appends to dst the handle rows of the named arity-ary
// relation that relation.RangeAppend returns for ranges — a superset of
// those inside every range — charging only the appended tuples. An absent
// relation, or one stored with another arity, appends nothing: a range
// compiled against an atom must not read a relation the atom cannot match.
func (s *Store) RangeAppend(dst [][]relation.Handle, name string, arity int, ranges []relation.Range) [][]relation.Handle {
	r := s.getArity(name, arity)
	if r == nil {
		return dst
	}
	before := len(dst)
	dst = r.RangeAppend(dst, ranges)
	s.charge(name, int64(len(dst)-before))
	return dst
}

// Reads returns the cumulative number of tuples read from the named
// relation via Tuples/Lookup/Probe.
func (s *Store) Reads(name string) int64 {
	s.readsMu.Lock()
	defer s.readsMu.Unlock()
	return s.reads[name]
}

// TotalReads sums the read counters over the given relation names (all
// relations when none are given).
func (s *Store) TotalReads(names ...string) int64 {
	if len(names) == 0 {
		names = s.Names()
	}
	s.readsMu.Lock()
	defer s.readsMu.Unlock()
	var sum int64
	for _, n := range names {
		sum += s.reads[n]
	}
	return sum
}

// ResetReads zeroes all read counters.
func (s *Store) ResetReads() {
	s.readsMu.Lock()
	s.reads = map[string]int64{}
	s.readsMu.Unlock()
}

// ReplaceRange swaps one range of the named relation: every stored tuple
// whose column rg.Col lies in rg is replaced by the tuples whose interned
// handles are rows, each of which must lie in it too. A range that bounds
// nothing is the whole relation, at any arity (nullary included): its old
// tuples are the live rows, enumerated without an index. The old tuples
// of a point (relation.Range.Point) are found through the hash index of
// its column, those of any other range through the ordered one. It is
// bulk state transfer (a mirror refresh from a remote site): no read
// counters are charged. An old row is deleted when no row of rows carries
// its handles, and the rows are then inserted in their order, each new one
// copied (the caller keeps rows and may reuse them). It mutates the
// relation in place and touches no tuple outside the range, so the
// relation keeps its arrays and indexes, and a tuple in both the old and
// the new contents keeps the data version: swapping in what is already
// there moves nothing and allocates nothing, for 1 tuple as for 50. The
// relation is created when absent; it
// fails if the relation exists with another arity or a row has the
// wrong arity. Tuple-at-a-time mutation means a
// concurrent reader may see a partially swapped range; callers (the
// netdist coordinator's mirror refresh) keep writers of the range away
// through the scheduler's footprints — a task that refreshes it holds a
// read claim on it — and refreshes that race each other then swap in the
// same contents.
func (s *Store) ReplaceRange(name string, arity int, rg relation.Range, rows [][]relation.Handle) error {
	whole := !rg.HasLo && !rg.HasHi
	if !whole && (rg.Col < 0 || rg.Col >= arity) {
		return fmt.Errorf("store: replace range %s/%d: column %d out of range", name, arity, rg.Col)
	}
	for _, row := range rows {
		if len(row) != arity {
			return fmt.Errorf("store: replace range %s/%d: tuple %s has arity %d", name, arity, relation.Materialize(row), len(row))
		}
		if !whole && !rg.Contains(relation.InternedValue(row[rg.Col])) {
			return fmt.Errorf("store: replace range %s: tuple %s lies outside the range at column %d", name, relation.Materialize(row), rg.Col)
		}
	}
	r, err := s.Ensure(name, arity)
	if err != nil {
		return err
	}
	// A refresh mostly ships what the mirror holds: the old rows are
	// gathered in pooled room for as many as were shipped.
	sc := replaceScratch.Get().(*replaceRoom)
	old := slices.Grow(sc.old[:0], len(rows))
	v, point := rg.Point()
	switch {
	case whole:
		old = r.TuplesAppend(old)
	case point:
		old = r.LookupColsAppend(old, []int{rg.Col}, []relation.Handle{relation.Intern(v)})
	default:
		old = r.RangeAppend(old, []relation.Range{rg})
	}
	if len(old) > 0 {
		// Diff by handle: an old row is looked up among the shipped rows,
		// sorted.
		fresh := append(sc.fresh[:0], rows...)
		slices.SortFunc(fresh, slices.Compare[[]relation.Handle])
		for _, hs := range old {
			if _, found := slices.BinarySearchFunc(fresh, hs, slices.Compare[[]relation.Handle]); !found {
				r.DeleteHandles(hs)
			}
		}
		sc.fresh = fresh
	}
	sc.old = old
	sc.put()
	for _, row := range rows {
		r.InsertHandles(row)
	}
	return nil
}

// replaceRoom is ReplaceRange's room: the old rows of the range, and the
// shipped ones sorted.
type replaceRoom struct{ old, fresh [][]relation.Handle }

var replaceScratch = sync.Pool{New: func() any { return new(replaceRoom) }}

// maxPooledRows bounds the room put back: a rare large range's is not
// kept.
const maxPooledRows = 4096

// put empties the room — it holds no row past the call — and pools it.
func (sc *replaceRoom) put() {
	if max(cap(sc.old), cap(sc.fresh)) > maxPooledRows {
		return
	}
	clear(sc.old)
	clear(sc.fresh)
	sc.old, sc.fresh = sc.old[:0], sc.fresh[:0]
	replaceScratch.Put(sc)
}

// Clone returns a deep copy of the store with zeroed counters.
func (s *Store) Clone() *Store {
	out := New()
	s.mu.RLock()
	defer s.mu.RUnlock()
	for n, r := range s.rels {
		out.rels[n] = r.Clone()
	}
	return out
}

// LoadFacts inserts every fact (bodiless ground rule) of prog into the
// store and rejects non-fact rules.
func (s *Store) LoadFacts(prog *ast.Program) error {
	for _, r := range prog.Rules {
		if !r.IsFact() {
			return fmt.Errorf("store: rule %s is not a fact", r)
		}
		t, err := relation.TermsToTuple(r.Head.Args)
		if err != nil {
			return fmt.Errorf("store: fact %s: %v", r, err)
		}
		if _, err := s.Insert(r.Head.Pred, t); err != nil {
			return err
		}
	}
	return nil
}

// String renders the store contents sorted by relation name.
func (s *Store) String() string {
	var parts []string
	for _, n := range s.Names() {
		parts = append(parts, s.get(n).String())
	}
	return strings.Join(parts, "\n")
}

// Update is an insertion or deletion of one tuple, the update granularity
// of Section 4 and 5 of the paper.
type Update struct {
	Insert   bool
	Relation string
	Tuple    relation.Tuple
}

// Ins builds an insertion update.
func Ins(rel string, t relation.Tuple) Update { return Update{Insert: true, Relation: rel, Tuple: t} }

// Del builds a deletion update.
func Del(rel string, t relation.Tuple) Update { return Update{Relation: rel, Tuple: t} }

// Apply performs the update on the store.
func (u Update) Apply(s *Store) error {
	_, err := s.Write([]Update{u})
	return err
}

// Write makes the writes in order, all or none: an insert into a relation
// of another arity refuses the lot before anything is written. Inserts
// into one absent relation must agree on its arity. It returns the writes
// that changed the store, compacted into ws.
func (s *Store) Write(ws []Update) ([]Update, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range ws {
		if w := &ws[i]; w.Insert {
			if err := arityConflict(s.rels[w.Relation], len(w.Tuple)); err != nil {
				return nil, err
			}
		}
	}
	n := 0
	for i := range ws {
		w := &ws[i]
		changed := false
		if w.Insert {
			r, _ := s.ensure(w.Relation, len(w.Tuple))
			changed = r.Insert(w.Tuple)
		} else if r := s.rels[w.Relation]; r != nil {
			changed = r.Delete(w.Tuple)
		}
		if changed {
			ws[n] = *w
			n++
		}
	}
	return ws[:n], nil
}

// Pending reports whether t is in rel once the updates us are applied in
// order, where one of them decides it: the last update of t in rel does.
// touched is false when none of them is an update of t in rel.
func Pending(us []Update, rel string, t relation.Tuple) (in, touched bool) {
	for i := len(us) - 1; i >= 0; i-- {
		if u := &us[i]; u.Relation == rel && u.Tuple.Equal(t) {
			return u.Insert, true
		}
	}
	return false, false
}

// PendingRow is Pending for the tuple whose handle row is hs.
func PendingRow(us []Update, rel string, hs []relation.Handle) (in, touched bool) {
	for i := len(us) - 1; i >= 0; i-- {
		if u := &us[i]; u.Relation == rel && u.Tuple.EqualHandles(hs) {
			return u.Insert, true
		}
	}
	return false, false
}

// String renders the update as +rel(t) or -rel(t).
func (u Update) String() string {
	sign := "-"
	if u.Insert {
		sign = "+"
	}
	return sign + u.Relation + u.Tuple.String()
}

// Dump renders the store as a facts program — one fact per tuple, sorted
// by relation name, in the parser's syntax — so a store round-trips
// through Dump → parser.ParseProgram → LoadFacts. Tuples appear in
// insertion order within each relation.
func (s *Store) Dump() string {
	var sb strings.Builder
	for _, name := range s.Names() {
		r := s.get(name)
		for _, t := range r.Tuples() {
			sb.WriteString(ast.Fact(ast.Atom{Pred: name, Args: t.Terms()}).String())
			sb.WriteString("\n")
		}
	}
	return sb.String()
}
