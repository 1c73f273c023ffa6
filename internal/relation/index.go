package relation

import (
	"fmt"
	"slices"
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
// lazily on first probe, maintained
// incrementally by Insert, tolerate Delete holes (gather skips them),
// and are refilled in place — not dropped — by compactLocked, so a
// signature once requested stays warm for the relation's lifetime.

// multiIndex maps a bound-column projection fingerprint to the positions
// of the tuples holding that projection. cols is sorted ascending.
type multiIndex struct {
	cols    []int
	buckets map[uint64][]int
}

// Process-wide index accounting, read into the internal/obs registry at
// scrape time by core (cc_index_builds / cc_index_probes). Builds count
// full index constructions (a probe's lazy build), not a compaction's
// refill; probes count bucket lookups (LookupColsAppend, FirstCols).
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

// FingerprintProj fingerprints the projection of the handle row hs onto
// cols: FingerprintHandles of the projected handles, without copying them.
func FingerprintProj(hs []Handle, cols []int) uint64 {
	fp := uint64(fnvOffset64)
	for _, c := range cols {
		fp = fingerprintFold(fp, hs[c])
	}
	return fp
}

// checkCols validates the column set against the arity and reports
// whether it is already sorted strictly ascending (the planner always
// emits sorted probe columns, so the hot path never allocates). It
// panics on out-of-range columns and on a column count other than n, the
// number of probe values — programming errors, like Insert's arity
// panic.
func (r *Relation) checkCols(cols []int, n int) (sorted bool) {
	if len(cols) != n {
		panic(fmt.Sprintf("relation: %d columns probed with %d values on %s", len(cols), n, r.name))
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
	if r.checkCols(cols, len(vals)) {
		return cols, vals
	}
	order := make([]int, len(cols))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return cols[order[a]] < cols[order[b]] })
	outCols, outVals := make([]int, len(cols)), make([]ast.Value, len(vals))
	prev := -1
	for i, o := range order {
		c := cols[o]
		if c == prev {
			panic(fmt.Sprintf("relation: duplicate column %d in index for %s", c, r.name))
		}
		prev = c
		outCols[i], outVals[i] = c, vals[o]
	}
	return outCols, outVals
}

// buildLocked constructs the index for the sorted column set. Caller
// holds the write lock.
func (r *Relation) buildLocked(cols []int) *multiIndex {
	mi := &multiIndex{cols: cols, buckets: map[uint64][]int{}}
	mi.fill(r.rows)
	r.midx[colsMask(cols)] = mi
	indexBuilds.Add(1)
	return mi
}

// fill buckets the positions of the live rows.
func (mi *multiIndex) fill(rows [][]Handle) {
	for pos, hs := range rows {
		if hs != nil {
			k := FingerprintProj(hs, mi.cols)
			mi.buckets[k] = append(mi.buckets[k], pos)
		}
	}
}

// refill re-buckets the rows of a compacted relation: each bucket is
// truncated and refilled in place, in position order as a build fills it.
// A bucket left empty keeps its key and array for the key's next rows,
// unless the emptied buckets outnumber both the rows and 64: then they are
// deleted. fresh starts from an empty map instead, for a relation that
// reallocated its arrays.
func (mi *multiIndex) refill(rows [][]Handle, fresh bool) {
	if fresh {
		mi.buckets = map[uint64][]int{}
	}
	for k, b := range mi.buckets {
		mi.buckets[k] = b[:0]
	}
	mi.fill(rows)
	empty := 0
	for _, b := range mi.buckets {
		if len(b) == 0 {
			empty++
		}
	}
	if empty <= max(len(rows), 64) {
		return
	}
	for k, b := range mi.buckets {
		if len(b) == 0 {
			delete(mi.buckets, k)
		}
	}
}

// gatherLocked appends to dst the live rows at the indexed positions that
// agree with the probe handles on cols. Caller holds mu (read or write).
func (r *Relation) gatherLocked(dst [][]Handle, positions []int, cols []int, phs []Handle) [][]Handle {
next:
	for _, pos := range positions {
		hs := r.rows[pos]
		if hs == nil {
			continue
		}
		for i, c := range cols {
			if hs[c] != phs[i] {
				continue next
			}
		}
		dst = append(dst, hs)
	}
	return dst
}

// bucketLocked returns the positions bucketed under the probe handles of
// the sorted column set, building the index when it is missing: under
// the read lock the caller holds, which it trades for the write lock
// while it builds (double-checked) and holds again on return.
func (r *Relation) bucketLocked(cols []int, fp uint64) []int {
	sig := colsMask(cols)
	indexProbes.Add(1)
	if mi, ok := r.midx[sig]; ok {
		return mi.buckets[fp]
	}
	r.mu.RUnlock()
	r.mu.Lock()
	if _, ok := r.midx[sig]; !ok {
		r.buildLocked(append([]int(nil), cols...))
	}
	r.mu.Unlock()
	// Indexes are never dropped: the one found or built is still there.
	r.mu.RLock()
	return r.midx[sig].buckets[fp]
}

// LookupColsAppend appends to dst the handle rows of the tuples whose
// projection onto cols — sorted ascending, as the join planner emits
// them — carries the handles key, through (and lazily building) the hash
// index on that column set. The rows are the relation's own; the caller
// must not modify them.
func (r *Relation) LookupColsAppend(dst [][]Handle, cols []int, key []Handle) [][]Handle {
	if !r.checkCols(cols, len(key)) {
		// A copy: cols itself must not escape, a caller's stack array included.
		panic(fmt.Sprintf("relation: probe columns %v of %s are not sorted ascending", slices.Clone(cols), r.name))
	}
	fp := FingerprintHandles(key)
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.gatherLocked(dst, r.bucketLocked(cols, fp), cols, key)
}

// FirstCols is the existence-only probe: it returns the handle row of the
// first live tuple (in bucket order) whose projection onto cols equals
// vals and that holds one value at both positions of every pair in same,
// or nil when there is none. The row is the relation's own; the caller
// must not modify it. It copies no bucket and allocates nothing once the
// index on cols is built — which it does lazily, like LookupColsAppend.
// Values compare as interned handles.
func (r *Relation) FirstCols(cols []int, vals []ast.Value, same [][2]int) []Handle {
	sorted, svals := r.normalizeCols(cols, vals)
	var scratch [8]Handle
	phs := AppendHandles(scratch[:0], svals)
	fp := FingerprintHandles(phs)
	r.mu.RLock()
	defer r.mu.RUnlock()
next:
	for _, pos := range r.bucketLocked(sorted, fp) {
		hs := r.rows[pos]
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
		return hs
	}
	return nil
}
