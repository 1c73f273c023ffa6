// Package sched schedules constraint-checked updates for concurrent
// apply. The paper's locality result — most updates are decided from a
// small footprint of the database — has a scheduling corollary: two
// updates whose footprints are disjoint commute, so they may be checked
// and applied in parallel without changing any verdict or the final
// store state. This package says what a footprint is (the tuple-level
// writes and the read claims of one task) and when two conflict, and runs
// a conflict-aware scheduler that runs independent tasks concurrently
// while serializing conflicting ones in admission order. It does not
// derive footprints: the checker's decision programs say what a decision
// reads (core.Checker.Footprints). The result is serializable in
// admission order: verdicts and final state are identical to a single
// worker applying the same stream sequentially.
package sched

import (
	"strconv"

	"repro/internal/relation"
)

// Write is one tuple-level write: the relation, the tuple's interned
// handles (what a keyed read compares its key with) and their
// fingerprint. Two writes to the same relation with different
// fingerprints are disjoint under set semantics (insert/delete of
// different tuples commute); same-fingerprint writes conflict because
// insert-then-delete and delete-then-insert diverge.
type Write struct {
	Relation string
	FP       uint64
	Cols     []relation.Handle
}

// Read is one read claim. Keyed, it is "the tuples of Relation whose
// column Col equals Key" — one key group, which is what a residual probe
// with a pinned argument reads; otherwise it is the whole relation. Key
// is an interned handle, so 2, 2/1 and #2/1 are one key.
type Read struct {
	Relation string
	Keyed    bool
	Col      int
	Key      relation.Handle
}

// covers reports whether the written tuple lies in what the read claims.
// A tuple too short to have the column is taken to (no probe matches it,
// but nothing is lost by waiting).
func (r Read) covers(w Write) bool {
	return r.Relation == w.Relation &&
		(!r.Keyed || r.Col >= len(w.Cols) || w.Cols[r.Col] == r.Key)
}

// Footprint is the read/write set of one scheduled task. Writes are
// tuple-level. Reads are the data the update's check may consult: a key
// group where the residual test probes one, a whole relation elsewhere.
// A key group is as fine as a read claim can soundly get, and it is
// sound because it is what the residual VM asks the store for: the
// probe binds the pinned column (the scan arm filters on it), so a tuple
// outside the group is never a candidate and cannot change the answer.
// A Barrier footprint conflicts with everything (used for stats
// snapshots, which must see a quiescent store).
//
// Wire says the task may wait on a site: it writes a relation, or reads
// one, that is mirrored from remote sites — a write that must be
// propagated, a read whose mirror must be refreshed first. It is derived
// with the reads (core.Footprints), orders nothing (Conflict never looks
// at it) and only tells the Scheduler that the task's time is not compute
// time.
type Footprint struct {
	Barrier bool
	Wire    bool
	Writes  []Write
	Reads   []Read
}

// Barrier returns a footprint that conflicts with every other task.
func Barrier() Footprint { return Footprint{Barrier: true} }

// CauseKind classifies what made one task wait for another.
type CauseKind uint8

const (
	// CauseNone: the footprints do not conflict.
	CauseNone CauseKind = iota
	// CauseBarrier: one of the two is a barrier.
	CauseBarrier
	// CauseSameTuple: both write the same tuple of one relation.
	CauseSameTuple
	// CauseKeyedRead: one writes into a key group the other reads.
	CauseKeyedRead
	// CauseWholeRead: one writes a relation the other reads as a whole.
	CauseWholeRead
)

// String is the kind's metric label.
func (k CauseKind) String() string {
	switch k {
	case CauseBarrier:
		return "barrier"
	case CauseSameTuple:
		return "same-tuple"
	case CauseKeyedRead:
		return "keyed-read"
	case CauseWholeRead:
		return "whole-read"
	}
	return "none"
}

// Cause is one conflict between two footprints: its kind, the relation
// it is on and, for a keyed read, the key group.
type Cause struct {
	Kind     CauseKind
	Relation string
	Col      int
	Key      relation.Handle
}

// Reason renders the cause without its key value — "barrier",
// "same-tuple write of dept", "read of emp[1]", "whole read of emp" —
// so that it can label a span or a rollup row.
func (c Cause) Reason() string {
	switch c.Kind {
	case CauseBarrier:
		return "barrier"
	case CauseSameTuple:
		return "same-tuple write of " + c.Relation
	case CauseKeyedRead:
		return "read of " + c.Relation + "[" + strconv.Itoa(c.Col) + "]"
	case CauseWholeRead:
		return "whole read of " + c.Relation
	}
	return ""
}

// readCause is the conflict of a write with the read that covers it.
func readCause(r Read) Cause {
	if r.Keyed {
		return Cause{Kind: CauseKeyedRead, Relation: r.Relation, Col: r.Col, Key: r.Key}
	}
	return Cause{Kind: CauseWholeRead, Relation: r.Relation}
}

// Conflict returns the first reason the two footprints may not be
// reordered (Kind CauseNone when they may): either is a barrier, they
// write the same tuple of the same relation (WW), or one writes a tuple
// that a read of the other covers (RW/WR) — any tuple of a relation read
// whole, a tuple carrying the key in the column of a keyed read.
// Read/read overlap is not a conflict, and neither is a write outside
// the key group a read is confined to.
func (f Footprint) Conflict(o Footprint) Cause {
	if f.Barrier || o.Barrier {
		return Cause{Kind: CauseBarrier}
	}
	for _, w := range f.Writes {
		for _, x := range o.Writes {
			if w.Relation == x.Relation && w.FP == x.FP {
				return Cause{Kind: CauseSameTuple, Relation: w.Relation}
			}
		}
		for _, r := range o.Reads {
			if r.covers(w) {
				return readCause(r)
			}
		}
	}
	for _, w := range o.Writes {
		for _, r := range f.Reads {
			if r.covers(w) {
				return readCause(r)
			}
		}
	}
	return Cause{}
}

// Conflicts reports whether the two footprints may not be reordered.
func (f Footprint) Conflicts(o Footprint) bool { return f.Conflict(o).Kind != CauseNone }
