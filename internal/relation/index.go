package relation

import (
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/ast"
)

// Per-column-set hash indexes. A multiIndex buckets tuple positions by
// the fingerprint of the tuple's interned-handle projection onto a fixed
// column set; probing a bucket answers "which tuples agree with these
// bound values" in O(bucket) instead of O(relation). Candidates are
// verified by handle comparison on the probed columns, so a fingerprint
// collision costs a comparison, never a wrong answer. Indexes are built
// lazily on first probe (or eagerly via EnsureIndex), maintained
// incrementally by Insert, tolerate Delete holes (gather skips them),
// and are rebuilt — not dropped — by compactLocked, so a signature once
// requested stays warm for the relation's lifetime.

// multiIndex maps a bound-column projection fingerprint to the positions
// of the tuples holding that projection. cols is sorted ascending.
type multiIndex struct {
	cols    []int
	buckets map[uint64][]int
}

// Process-wide index accounting, exported into the internal/obs registry
// by core (cc_index_builds / cc_index_probes). Builds count full index
// constructions (lazy build, EnsureIndex, compaction rebuild); probes
// count bucket lookups (LookupCols / Index.Probe, single-column Lookup
// included).
var (
	indexBuilds atomic.Int64
	indexProbes atomic.Int64
)

// IndexBuilds returns the process-wide count of hash-index builds.
func IndexBuilds() int64 { return indexBuilds.Load() }

// IndexProbes returns the process-wide count of hash-index probes.
func IndexProbes() int64 { return indexProbes.Load() }

// colsMask encodes a duplicate-free column set as a bitmask — an exact,
// allocation-free map key for the per-column-set indexes. The hash-index
// layer therefore supports relations of up to 64 columns, far beyond any
// arity the constraint language produces.
func colsMask(cols []int) uint64 {
	var m uint64
	for _, c := range cols {
		if c >= 64 {
			panic(fmt.Sprintf("relation: hash indexes support at most 64 columns (column %d)", c))
		}
		m |= 1 << uint(c)
	}
	return m
}

// fingerprintProj fingerprints the projection of a stored handle slice
// onto cols.
func fingerprintProj(hs []Handle, cols []int) uint64 {
	fp := uint64(fnvOffset64)
	for _, c := range cols {
		fp = fingerprintFold(fp, hs[c])
	}
	return fp
}

// checkCols validates the column set against the arity and reports
// whether it is already sorted strictly ascending (the planner always
// emits sorted probe columns, so the hot path never allocates). It
// panics on out-of-range columns and on a cols/vals length mismatch —
// programming errors, like Insert's arity panic.
func (r *Relation) checkCols(cols []int, vals []ast.Value) (sorted bool) {
	if vals != nil && len(cols) != len(vals) {
		panic(fmt.Sprintf("relation: %d columns probed with %d values on %s", len(cols), len(vals), r.name))
	}
	sorted = true
	for i, c := range cols {
		if c < 0 || c >= r.arity {
			panic(fmt.Sprintf("relation: column %d out of range for %s/%d", c, r.name, r.arity))
		}
		if i > 0 && c <= cols[i-1] {
			sorted = false
		}
	}
	return sorted
}

// normalizeCols returns cols sorted strictly ascending along with the
// values permuted to match, copying only when the input is unsorted. It
// panics on duplicate columns.
func (r *Relation) normalizeCols(cols []int, vals []ast.Value) ([]int, []ast.Value) {
	if r.checkCols(cols, vals) {
		return cols, vals
	}
	order := make([]int, len(cols))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return cols[order[a]] < cols[order[b]] })
	outCols := make([]int, len(cols))
	var outVals []ast.Value
	if vals != nil {
		outVals = make([]ast.Value, len(vals))
	}
	prev := -1
	for i, o := range order {
		c := cols[o]
		if c == prev {
			panic(fmt.Sprintf("relation: duplicate column %d in index for %s", c, r.name))
		}
		prev = c
		outCols[i] = c
		if vals != nil {
			outVals[i] = vals[o]
		}
	}
	return outCols, outVals
}

// buildLocked constructs the index for the sorted column set. Caller
// holds the write lock.
func (r *Relation) buildLocked(cols []int) *multiIndex {
	mi := &multiIndex{cols: cols, buckets: map[uint64][]int{}}
	for pos, hs := range r.handles {
		if hs != nil {
			k := fingerprintProj(hs, cols)
			mi.buckets[k] = append(mi.buckets[k], pos)
		}
	}
	r.midx[colsMask(cols)] = mi
	indexBuilds.Add(1)
	return mi
}

// EnsureIndex builds the hash index on the given column set if it does
// not exist yet. Probes through LookupCols build lazily anyway; EnsureIndex
// is for warming an index ahead of time (store.Replace uses it to carry
// index signatures onto the fresh relation).
func (r *Relation) EnsureIndex(cols ...int) {
	sorted, _ := r.normalizeCols(cols, nil)
	sig := colsMask(sorted)
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.midx[sig]; !ok {
		// buildLocked keeps a reference to the column slice; copy so a
		// caller reusing its argument cannot mutate the index's key.
		r.buildLocked(append([]int(nil), sorted...))
	}
}

// IndexSignatures returns the column sets of the indexes currently built
// on the relation, sorted by signature for determinism.
func (r *Relation) IndexSignatures() [][]int {
	r.mu.RLock()
	out := make([][]int, 0, len(r.midx))
	for _, mi := range r.midx {
		out = append(out, append([]int(nil), mi.cols...))
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return colsMask(out[i]) < colsMask(out[j]) })
	return out
}

// gatherMatchLocked appends to dst the live tuples at the indexed
// positions whose handles agree with the probe handles on cols. Caller
// holds mu (read or write).
func (r *Relation) gatherMatchLocked(dst []Tuple, positions []int, cols []int, phs []Handle) []Tuple {
	for _, pos := range positions {
		t := r.tuples[pos]
		if t == nil {
			continue
		}
		hs := r.handles[pos]
		ok := true
		for i, c := range cols {
			if hs[c] != phs[i] {
				ok = false
				break
			}
		}
		if ok {
			dst = append(dst, t)
		}
	}
	return dst
}

// LookupCols returns the tuples whose projection onto cols equals vals,
// using (and lazily building) the hash index on that column set.
func (r *Relation) LookupCols(cols []int, vals []ast.Value) []Tuple {
	return r.LookupColsAppend(nil, cols, vals)
}

// LookupColsAppend is LookupCols appending into dst — the
// allocation-free variant for callers holding a reusable buffer. The
// build is double-checked under the write lock so concurrent readers
// race safely, exactly like the single-column Lookup.
func (r *Relation) LookupColsAppend(dst []Tuple, cols []int, vals []ast.Value) []Tuple {
	sorted, svals := r.normalizeCols(cols, vals)
	var scratch [8]Handle
	phs := scratch[:0]
	fp := uint64(fnvOffset64)
	for _, v := range svals {
		h := Intern(v)
		phs = append(phs, h)
		fp = fingerprintFold(fp, h)
	}
	sig := colsMask(sorted)
	indexProbes.Add(1)
	r.mu.RLock()
	if mi, ok := r.midx[sig]; ok {
		out := r.gatherMatchLocked(dst, mi.buckets[fp], sorted, phs)
		r.mu.RUnlock()
		return out
	}
	r.mu.RUnlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	mi, ok := r.midx[sig]
	if !ok {
		mi = r.buildLocked(append([]int(nil), sorted...))
	}
	return r.gatherMatchLocked(dst, mi.buckets[fp], sorted, phs)
}

// FirstCols is the existence-only probe: it returns the first live tuple
// (in bucket order) whose projection onto cols equals vals and that holds
// one value at both positions of every pair in same, or nil when there is
// none. It copies no bucket and allocates nothing once the index on cols
// is built — which it does lazily, like LookupCols. Values compare as
// interned handles.
func (r *Relation) FirstCols(cols []int, vals []ast.Value, same [][2]int) Tuple {
	sorted, svals := r.normalizeCols(cols, vals)
	var scratch [8]Handle
	phs, fp := internTuple(svals, scratch[:0])
	sig := colsMask(sorted)
	indexProbes.Add(1)
	r.mu.RLock()
	mi, ok := r.midx[sig]
	if !ok {
		// Indexes are never dropped, so the one EnsureIndex builds is
		// still there when the read lock is back.
		r.mu.RUnlock()
		r.EnsureIndex(sorted...)
		r.mu.RLock()
		mi = r.midx[sig]
	}
	defer r.mu.RUnlock()
next:
	for _, pos := range mi.buckets[fp] {
		hs := r.handles[pos]
		if hs == nil {
			continue
		}
		for i, c := range sorted {
			if hs[c] != phs[i] {
				continue next
			}
		}
		for _, p := range same {
			if hs[p[0]] != hs[p[1]] {
				continue next
			}
		}
		return r.tuples[pos]
	}
	return nil
}

// Index is a handle on one column-set hash index: Probe returns the
// bucket of tuples whose projection onto the index's columns equals the
// probe values. The handle stays valid across Insert/Delete/compaction —
// it addresses the index by signature, not by pointer.
type Index struct {
	r    *Relation
	cols []int
}

// Index returns a probe handle for the hash index on cols, building the
// index if needed.
func (r *Relation) Index(cols ...int) *Index {
	sorted, _ := r.normalizeCols(cols, nil)
	sorted = append([]int(nil), sorted...)
	r.EnsureIndex(sorted...)
	return &Index{r: r, cols: sorted}
}

// Cols returns the index's column set (sorted ascending).
func (ix *Index) Cols() []int { return append([]int(nil), ix.cols...) }

// Probe returns the tuples bucketed under the given bound-column values
// (in the order of Cols).
func (ix *Index) Probe(vals ...ast.Value) []Tuple {
	return ix.r.LookupCols(ix.cols, vals)
}
