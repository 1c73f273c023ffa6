// Package sched schedules constraint-checked updates for concurrent
// apply. The paper's locality result — most updates are decided from a
// small footprint of the database — has a scheduling corollary: two
// updates whose footprints are disjoint commute, so they may be checked
// and applied in parallel without changing any verdict or the final
// store state. This package computes those footprints symbolically from
// the constraint set (the same update-pattern analysis internal/residual
// compiles from) and runs a conflict-aware scheduler that runs
// independent updates concurrently while serializing conflicting ones in
// admission order. The result is serializable in admission order:
// verdicts and final state are identical to a single worker applying the
// same stream sequentially.
package sched

import (
	"slices"
	"strconv"
	"sync"

	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/relation"
	"repro/internal/residual"
	"repro/internal/store"
)

// Sharder describes the relations a coordinator does not store itself
// but mirrors from remote sites. netdist.Placement implements it; a nil
// Sharder (the default) means every relation is stored here.
//
// The index needs it for one reason each: ReadPlan names the key groups
// to fetch, which are groups of the shard-key column; a task that
// reads a remote relation first rewrites its mirror — one key group on
// the shard-key column, or the whole relation — so its claim on that
// relation may be no finer than what the refresh rewrites; and a task
// that touches a remote relation may wait on a site (Footprint.Wire).
type Sharder interface {
	// Remote reports whether rel is mirrored from remote sites.
	Remote(rel string) bool
	// ShardKey returns the column rel's mirror is refreshed by, one key
	// group at a time, and ok=true when there is one (a hash-partitioned
	// relation with routing on); ok=false when the mirror is only ever
	// refreshed as a whole.
	ShardKey(rel string) (col int, ok bool)
}

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
// A Barrier footprint conflicts with everything (used for batches that
// must see a quiescent store, stats snapshots, and unknown update
// patterns).
//
// Wire says the task may wait on a site: it writes a relation, or reads
// one, that the index's Sharder reports Remote — a write that must be
// propagated, a read whose mirror must be refreshed first. It is derived
// (Index.Update sets it), orders nothing (Conflict never looks at it)
// and only tells the Scheduler that the task's time is not compute time.
type Footprint struct {
	Barrier bool
	Wire    bool
	Writes  []Write
	Reads   []Read
}

// Union adds o's claims to f's (set semantics, keyed reads kept as they
// are); used to footprint atomic batches as a single task. It appends to
// f's slices: use the result, not f, afterwards.
func (f Footprint) Union(o Footprint) Footprint {
	f.Barrier = f.Barrier || o.Barrier
	f.Wire = f.Wire || o.Wire
next:
	for _, w := range o.Writes {
		for _, x := range f.Writes {
			// Whole tuples, not fingerprints: dropping a colliding write
			// would drop the columns a keyed read must see.
			if w.Relation == x.Relation && w.FP == x.FP && slices.Equal(w.Cols, x.Cols) {
				continue next
			}
		}
		f.Writes = append(f.Writes, w)
	}
	for _, r := range o.Reads {
		f.Reads = addRead(f.Reads, r)
	}
	return f
}

// addRead appends r unless rs already holds it. Read sets are a handful
// of claims, so a scan beats a map.
func addRead(rs []Read, r Read) []Read {
	for _, x := range rs {
		if x == r {
			return rs
		}
	}
	return append(rs, r)
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

// IndexOptions mirror the backing checker's A/B switches, because the
// read set of an update is exactly the data the checker's enabled phases
// may consult for it.
type IndexOptions struct {
	// Residual: the checker dispatches eligible update patterns to
	// compiled residuals, which read only the harmful-occurrence
	// disjunct bodies. Off, every undecided pattern may reach phase 3 /
	// global evaluation, which read every stored relation the constraint
	// mentions (including the updated one).
	Residual bool
	// Polarity: phase 1.5 is enabled (core.Options.DisableUpdateOnly
	// unset), so monotone-safe patterns are decided without reading any
	// data.
	Polarity bool
	// Sharder names the remotely held relations and their shard-key
	// columns (see Sharder). Nil: every relation is stored here.
	Sharder Sharder
}

// readSpec is one symbolic read of an update pattern, derived once per
// (relation, polarity) and instantiated per concrete tuple. Keyed specs
// come only from the residual analysis: the harmful occurrence binds an
// argument of the probed literal to a fixed tuple position (or the
// argument is a constant), exactly mirroring residual.Compile's
// substitution, so the instantiated key group covers every probe the
// residual VM will issue for the tuple. general marks the conservative
// phase-3/global fallback claim, which an evaluation-level probe router
// serves rather than the residual VM — the distinction is what lets a
// coordinator skip mirror refreshes for router-served relations (see
// ReadPlan).
type readSpec struct {
	rel     string
	keyed   bool
	col     int             // keyed: the pinned column of rel
	pos     int             // keyed: the update-tuple position holding the key, -1 for a constant
	key     relation.Handle // keyed, pos < 0: the constant baked into the constraint
	occAr   int             // keyed: occurrence arity; applies only to tuples of this arity
	general bool            // whole: true when from the non-residual fallback
	remote  bool            // rel is mirrored from a site: reading it may wait on the wire
}

// Index derives and memoizes footprints per update pattern (relation +
// polarity) for a fixed constraint set. Safe for concurrent use. A
// checker whose constraint set changes must discard its index (see
// core.Checker.Footprints).
type Index struct {
	progs []*ast.Program
	opts  IndexOptions

	mu   sync.RWMutex
	memo map[patKey][]readSpec
}

type patKey struct {
	rel    string
	insert bool
}

// NewIndex builds a footprint index over the constraint programs.
func NewIndex(progs []*ast.Program, opts IndexOptions) *Index {
	return &Index{progs: progs, opts: opts, memo: map[patKey][]readSpec{}}
}

// Update footprints a single update: one tuple-level write plus the
// union over all constraints of the data the update's check may read,
// each claim instantiated to the key group the tuple names where the
// pattern has one.
func (ix *Index) Update(u store.Update) Footprint {
	hs := make([]relation.Handle, len(u.Tuple))
	for i, v := range u.Tuple {
		hs[i] = relation.Intern(v)
	}
	f := Footprint{
		Wire:   ix.remote(u.Relation),
		Writes: []Write{{Relation: u.Relation, FP: relation.FingerprintHandles(hs), Cols: hs}},
	}
	if specs := ix.specsFor(u.Relation, u.Insert); len(specs) > 0 {
		f.Reads = make([]Read, 0, len(specs))
		for _, sp := range specs {
			r := Read{Relation: sp.rel}
			if sp.keyed {
				if sp.occAr != len(hs) {
					continue // no disjunct matches this tuple: the probe never runs
				}
				r.Keyed, r.Col, r.Key = true, sp.col, sp.key
				if sp.pos >= 0 {
					r.Key = hs[sp.pos]
				}
			}
			f.Reads = addRead(f.Reads, r)
			f.Wire = f.Wire || sp.remote
		}
	}
	return f
}

// Batch footprints a set of updates checked and applied as one atomic
// task.
func (ix *Index) Batch(us []store.Update) Footprint {
	var f Footprint
	for _, u := range us {
		f = f.Union(ix.Update(u))
	}
	return f
}

// ReadPlan classifies how one update's check reads one relation, for a
// coordinator deciding what to refresh before the check. All fields zero
// means the check provably never reads the relation.
type ReadPlan struct {
	// Keys are the exact shard-key values the residual path probes the
	// relation with — set only when every residual read of it is such a
	// probe. A refresh that ships just those key groups makes the local
	// mirror exactly as fresh as the residual VM needs, and they are the
	// groups the update's footprint claims.
	Keys []ast.Value
	// Mirror: the residual path may range over the relation outside any
	// key group of the shard-key column, so the local mirror must be
	// refreshed in full before the check.
	Mirror bool
	// Eval: the relation is claimed through phase-3/global evaluation,
	// which an evaluation-level probe router can serve remotely at probe
	// time — no mirror refresh required on that account.
	Eval bool
}

// ReadPlan instantiates the update pattern's symbolic read specs for rel
// against the concrete tuple.
func (ix *Index) ReadPlan(u store.Update, rel string) ReadPlan {
	var rp ReadPlan
	kc, sharded := -1, false
	if ix.opts.Sharder != nil {
		kc, sharded = ix.opts.Sharder.ShardKey(rel)
	}
next:
	for _, sp := range ix.specsFor(u.Relation, u.Insert) {
		switch {
		case sp.rel != rel:
		case sp.general:
			rp.Eval = true
		case !sp.keyed || !sharded || sp.col != kc:
			rp.Mirror = true
		case sp.occAr == len(u.Tuple): // else no disjunct matches: the probe never runs
			h := sp.key
			if sp.pos >= 0 {
				h = relation.Intern(u.Tuple[sp.pos])
			}
			for _, k := range rp.Keys {
				if relation.Intern(k) == h {
					continue next
				}
			}
			rp.Keys = append(rp.Keys, relation.InternedValue(h))
		}
	}
	if rp.Mirror {
		// A whole residual read supersedes the keyed view: the refresh
		// must cover everything anyway.
		rp.Keys = nil
	}
	return rp
}

// remote reports whether rel is mirrored from a site.
func (ix *Index) remote(rel string) bool {
	return ix.opts.Sharder != nil && ix.opts.Sharder.Remote(rel)
}

func (ix *Index) specsFor(rel string, insert bool) []readSpec {
	k := patKey{rel, insert}
	ix.mu.RLock()
	specs, ok := ix.memo[k]
	ix.mu.RUnlock()
	if ok {
		return specs
	}
	specs = []readSpec{}
	for _, prog := range ix.progs {
		specs = progSpecs(prog, rel, insert, ix.opts, specs)
	}
	for i := range specs {
		specs[i].remote = ix.remote(specs[i].rel)
	}
	ix.mu.Lock()
	ix.memo[k] = specs
	ix.mu.Unlock()
	return specs
}

// progSpecs accumulates the symbolic reads a check of the (rel, insert)
// pattern against prog may perform, mirroring the checker's phase
// ladder:
//
//   - phase 1: a constraint that never mentions rel is unaffected — no
//     reads;
//   - phase 1.5: a monotone-safe pattern is certified from polarity
//     alone — no reads;
//   - residual dispatch: an eligible pattern reads only the other
//     literals of each harmful-occurrence disjunct (Nicolas' residual —
//     the body minus the occurrence unified with the update). When an
//     argument of the probed literal is a variable the occurrence pins
//     to a tuple position (or a baked constant), the read is keyed on
//     that column; otherwise it ranges over the whole relation;
//   - otherwise the pattern may fall through to phase 3 or global
//     evaluation, which read every stored relation in the constraint
//     (conservatively including rel itself: phase 3 scans the local
//     relation and global evaluation re-derives panic from all of them).
//
// Specs of several constraints are simply appended, so one constraint
// that reads a relation whole keeps the update's claim on it whole.
func progSpecs(prog *ast.Program, rel string, insert bool, opts IndexOptions, specs []readSpec) []readSpec {
	if !prog.Mentions(rel) {
		return specs
	}
	if opts.Polarity && classify.UpdateMonotoneSafe(prog, ast.PanicPred, rel, insert) {
		return specs
	}
	if opts.Residual {
		if sh := residual.DeriveShape(prog, rel, insert); sh.Eligible {
			if sh.Arity < 0 {
				return specs // no harmful occurrence: trivially safe, no reads
			}
			for _, r := range prog.Rules {
				for oi, l := range r.Body {
					if !l.Harmful(rel, insert) {
						continue
					}
					// sigma maps occurrence variables to tuple positions,
					// first binding wins — exactly residual.Compile's
					// substitution, so a keyed spec's position names the
					// same value the VM will probe with.
					sigma := map[string]int{}
					for i, a := range l.Atom.Args {
						if a.IsVar() {
							if _, bound := sigma[a.Var]; !bound {
								sigma[a.Var] = i
							}
						}
					}
					for bi, m := range r.Body {
						if bi == oi || m.IsComp() {
							continue
						}
						specs = append(specs, literalSpec(m, sigma, len(l.Atom.Args), opts.Sharder))
					}
				}
			}
			return specs
		}
	}
	for _, e := range prog.EDBPreds() {
		specs = append(specs, readSpec{rel: e, general: true})
	}
	return specs
}

// literalSpec derives the read claim of one non-occurrence body literal
// of a residual disjunct: keyed on a column whose argument is pinned (an
// occurrence variable, or failing that a constant), whole when none is —
// a key flowing in from a join register ranges over data the update
// does not determine. Any pinned column is sound. A relation stored
// here takes the first; a remote one may only take its shard-key column,
// because the task refreshes the mirror before it reads it and a
// refresh that is not of that key group rewrites the whole relation.
func literalSpec(m ast.Literal, sigma map[string]int, occAr int, sh Sharder) readSpec {
	args := m.Atom.Args
	sp := readSpec{rel: m.Atom.Pred}
	lo, hi := 0, len(args) // the columns the claim may be keyed on
	if sh != nil && sh.Remote(sp.rel) {
		kc, ok := sh.ShardKey(sp.rel)
		if !ok || kc >= len(args) {
			return sp
		}
		lo, hi = kc, kc+1
	}
	for col := lo; col < hi; col++ {
		a := args[col]
		if pos, bound := sigma[a.Var]; a.IsVar() && bound {
			return readSpec{rel: sp.rel, keyed: true, col: col, pos: pos, occAr: occAr}
		}
		if a.IsConst() && !sp.keyed {
			sp = readSpec{rel: sp.rel, keyed: true, col: col, pos: -1, key: relation.Intern(a.Const), occAr: occAr}
		}
	}
	return sp
}
