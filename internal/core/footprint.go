package core

import (
	"slices"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/residual"
	"repro/internal/sched"
	"repro/internal/store"
)

// Sharder describes the relations a coordinator does not store itself
// but mirrors from remote sites. netdist.Placement implements it; a nil
// Sharder (the default) means every relation is stored here.
//
// The read claims need it for one reason each: a decision reads a remote
// relation only through its mirror, which the coordinator first rewrites
// with the range of one column the compiled checks probe (ReadPlan names
// them), or the whole relation for any other read, phase 3 and
// evaluations included — and only a key group of the shard-key column is
// rewritten by itself, so only there may its claim be finer than the
// whole relation; and a task that touches a remote relation may wait on a
// site (sched.Footprint.Wire).
type Sharder interface {
	// Remote reports whether rel is mirrored from remote sites.
	Remote(rel string) bool
	// ShardKey returns the column rel is hash-partitioned by, whose key
	// groups are each read from one shard, and ok=true when there is one;
	// ok=false when the relation is placed whole.
	ShardKey(rel string) (col int, ok bool)
}

// claim is one read a decision of a pattern may make, in terms of the
// update tuple: the tuples of rel whose column col lies between lo and hi
// — a point when both are the same value, closed — or the whole relation
// (col < 0). A program's claims are the union of its steps' (compile): a
// step the pattern-level phases decide claims nothing, a compiled check
// the other literals of each disjunct (residualClaim), any other step
// every relation its evaluation reads.
type claim struct {
	rel    string
	col    int
	lo, hi end
	// keyed marks a point the scheduler may confine the claim to: on any
	// column of a relation stored here, on the shard-key column of a
	// remote one. Any other claim is of the whole relation to it.
	keyed bool
}

// end is one bound of a claim, when set: the update tuple's value at pos,
// or key when pos < 0; open when that value itself lies outside.
type end struct {
	set, open bool
	pos       int
	key       relation.Handle
}

// handle is the bound's interned value for a tuple of handles hs.
func (e end) handle(hs []relation.Handle) relation.Handle {
	if e.pos >= 0 {
		return hs[e.pos]
	}
	return e.key
}

// rangeOf instantiates the claim's bounds for the tuple t.
func (cl claim) rangeOf(t relation.Tuple) relation.Range {
	rg := relation.Range{Col: cl.col, HasLo: cl.lo.set, LoOpen: cl.lo.open, HasHi: cl.hi.set, HiOpen: cl.hi.open}
	value := func(e end) ast.Value {
		if e.pos >= 0 {
			return t[e.pos]
		}
		return relation.InternedValue(e.key)
	}
	if rg.HasLo {
		rg.Lo = value(cl.lo)
	}
	if rg.HasHi {
		rg.Hi = value(cl.hi)
	}
	return rg
}

// remote reports whether rel is mirrored from a site.
func (c *Checker) remote(rel string) bool {
	return c.opts.Sharder != nil && c.opts.Sharder.Remote(rel)
}

// residualClaim is what a compiled check reads of one literal of a
// disjunct, σ being the disjunct's substitution and comps its comparisons
// (residual.Reads). A column σ binds to a tuple position, or a constant
// fixes, is a point: the probe binds it, so a tuple outside it is never a
// candidate. Failing a point, a column whose variable the comparisons
// bound by tuple positions or constants is a range: a tuple outside it
// fails the comparison. Failing both the claim is the whole relation — a
// key flowing in from a join ranges over data the update does not
// determine. The point is the shard-key column's on a remote relation
// that has one, else the first column σ binds, else the first a constant
// fixes; the range is the first column bounded on both sides, else on
// one.
func (c *Checker) residualClaim(lit ast.Atom, sigma map[string]int, comps []ast.Comparison) claim {
	remote := c.remote(lit.Pred)
	// bound is t as a bound: a tuple position or a constant.
	bound := func(t ast.Term) (end, bool) {
		if pos, ok := sigma[t.Var]; t.IsVar() && ok {
			return end{set: true, pos: pos}, true
		}
		if t.IsConst() {
			return end{set: true, pos: -1, key: relation.Intern(t.Const)}, true
		}
		return end{}, false
	}
	kc := -1 // a remote relation's shard-key column: preferred, and alone keyed
	if remote {
		if col, ok := c.opts.Sharder.ShardKey(lit.Pred); ok {
			kc = col
		}
	}
	pick := -1
	for col, a := range lit.Args {
		if e, ok := bound(a); ok && (pick < 0 || col == kc || pick != kc && e.pos >= 0 && lit.Args[pick].IsConst()) {
			pick = col
		}
	}
	if pick >= 0 {
		e, _ := bound(lit.Args[pick])
		return claim{rel: lit.Pred, col: pick, lo: e, hi: e, keyed: !remote || pick == kc}
	}
	cl := claim{rel: lit.Pred, col: -1}
	for col, a := range lit.Args {
		if !a.IsVar() {
			continue
		}
		var lo, hi end
		for _, cmp := range comps {
			op, other := cmp.Op, cmp.Right
			switch {
			case cmp.Left.IsVar() && cmp.Left.Var == a.Var:
			case cmp.Right.IsVar() && cmp.Right.Var == a.Var:
				op, other = op.Flip(), cmp.Left
			default:
				continue
			}
			e, ok := bound(other)
			switch {
			case !ok:
			case (op == ast.Lt || op == ast.Le) && !hi.set:
				hi, hi.open = e, op == ast.Lt
			case (op == ast.Gt || op == ast.Ge) && !lo.set:
				lo, lo.open = e, op == ast.Gt
			}
		}
		if lo.set && hi.set {
			return claim{rel: lit.Pred, col: col, lo: lo, hi: hi}
		}
		if (lo.set || hi.set) && cl.col < 0 {
			cl.col, cl.lo, cl.hi = col, lo, hi
		}
	}
	return cl
}

// addClaims appends a step's claims to the program's. A compiled check
// claims its disjuncts' literals, a dynamic step its constraint's stored
// relations whole: phase 3 scans the local relation and an evaluation
// re-derives panic from all of them, the updated one included.
func (c *Checker) addClaims(p *program, s *progStep, key progKey) {
	if s.kind == stepDynamic {
		for _, rel := range s.k.edb {
			p.claims = append(p.claims, claim{rel: rel, col: -1})
		}
	} else {
		residual.Reads(s.k.flat, key.rel, key.insert, key.arity, func(lit ast.Atom, sigma map[string]int, comps []ast.Comparison) {
			p.claims = append(p.claims, c.residualClaim(lit, sigma, comps))
		})
	}
}

// Footprints is the scheduler's view of the checker's decision programs:
// what deciding an update writes and may read, instantiated from the read
// claims compiled with the program of its pattern (program.claims) — the
// data the compiled checks probe, one key group of a relation where σ
// pins the probed column, and every stored relation of a constraint left
// to the phases. It holds no state of its own: a lookup compiles the
// pattern's program if no decision has yet, and the programs go when the
// constraint set changes. Safe for concurrent use, under the checker's
// contract (no AddConstraint or RemoveConstraint meanwhile).
type Footprints struct{ c *Checker }

// Footprints returns the footprint view of the checker's programs.
func (c *Checker) Footprints() Footprints { return Footprints{c} }

// Update footprints an apply of u: its one tuple-level write and the
// reads of its decision. Wire says the write or a read touches a remote
// relation (a write that must be propagated, a mirror to refresh).
func (f Footprints) Update(u store.Update) sched.Footprint {
	return f.AppendUpdate(sched.Footprint{}, u)
}

// Check footprints a check of u: the reads of its decision alone. A check
// writes nothing, so it waits for, and holds back, only writes into what
// it reads — not other checks, nor a write of its own tuple, which its
// verdict does not depend on — and it is Wire only if a read is.
func (f Footprints) Check(u store.Update) sched.Footprint {
	return f.AppendCheck(sched.Footprint{}, u)
}

// Batch footprints a set of updates applied as one atomic task.
func (f Footprints) Batch(us []store.Update) sched.Footprint {
	return f.AppendBatch(sched.Footprint{}, us)
}

// AppendUpdate adds Update(u)'s claims to fp, each unless fp has it, and
// returns the result. Like append it writes into fp's arrays past their
// lengths, a write's Cols included: a caller may build one footprint
// after another in the same scratch, truncated to length 0 each time, as
// long as it keeps none of them — sched.Submit copies what it keeps.
func (f Footprints) AppendUpdate(fp sched.Footprint, u store.Update) sched.Footprint {
	fp, hs := appendWrite(fp, u)
	fp.Wire = fp.Wire || f.c.remote(u.Relation)
	return f.appendReads(fp, u, hs)
}

// AppendCheck adds Check(u)'s claims to fp, as AppendUpdate does.
func (f Footprints) AppendCheck(fp sched.Footprint, u store.Update) sched.Footprint {
	var buf [8]relation.Handle
	return f.appendReads(fp, u, internAll(buf[:0], u.Tuple))
}

// AppendBatch adds Batch(us)'s claims to fp, as AppendUpdate does.
func (f Footprints) AppendBatch(fp sched.Footprint, us []store.Update) sched.Footprint {
	for _, u := range us {
		fp = f.AppendUpdate(fp, u)
	}
	return fp
}

// internAll appends the interned handles of t to hs.
func internAll(hs []relation.Handle, t relation.Tuple) []relation.Handle {
	for _, v := range t {
		hs = append(hs, relation.Intern(v))
	}
	return hs
}

// appendWrite adds u's tuple-level write to fp unless fp has it — the
// whole tuple, not only its fingerprint: dropping a colliding write would
// drop the columns a keyed read must see. The write takes the slot past
// fp.Writes' length and that slot's Cols array; the tuple's handles are
// returned either way.
func appendWrite(fp sched.Footprint, u store.Update) (sched.Footprint, []relation.Handle) {
	ws := slices.Grow(fp.Writes, 1)[:len(fp.Writes)+1]
	w := &ws[len(fp.Writes)]
	w.Relation = u.Relation
	w.Cols = internAll(slices.Grow(w.Cols[:0], len(u.Tuple)), u.Tuple)
	w.FP = relation.FingerprintHandles(w.Cols)
	for _, x := range fp.Writes {
		if x.Relation == w.Relation && x.FP == w.FP && slices.Equal(x.Cols, w.Cols) {
			return fp, w.Cols
		}
	}
	fp.Writes = ws
	return fp, w.Cols
}

// appendReads adds the claims of u's program, instantiated for the tuple
// whose interned handles are hs, to fp's reads.
func (f Footprints) appendReads(fp sched.Footprint, u store.Update, hs []relation.Handle) sched.Footprint {
	p := f.c.programOf(u)
	fp.Wire = fp.Wire || p.wire
	fp.Reads = slices.Grow(fp.Reads, len(p.claims))
	for _, cl := range p.claims {
		r := sched.Read{Relation: cl.rel}
		if cl.keyed {
			r.Keyed, r.Col, r.Key = true, cl.col, cl.lo.handle(hs)
		}
		// Read sets are a handful of claims, so a scan beats a map.
		if !slices.Contains(fp.Reads, r) {
			fp.Reads = append(fp.Reads, r)
		}
	}
	return fp
}

// ReadPlan classifies how a decision of one update reads one relation,
// for a coordinator choosing what to refresh into its mirror before it —
// the decision then reads the mirror, so the plan must cover every read:
// the bounded ones of compiled checks, and the whole relation for any
// other. All fields zero means the decision never reads the relation.
type ReadPlan struct {
	// Ranges bound the relation's reads by the compiled checks, for the
	// update's tuple: one column each, a key group being the point range of
	// its column — set only when every compiled-check read of it is
	// bounded. A refresh that ships just those ranges makes the mirror
	// exactly as fresh as the checks need; a point on the shard-key column
	// is also the group the update's footprint claims.
	Ranges []relation.Range
	// Mirror: a compiled check may range over the whole relation, or a
	// constraint left to phase 3 or an evaluation reads it, so the mirror
	// must be refreshed in full.
	Mirror bool
}

// ReadPlan instantiates the claims of u's program on rel for its tuple.
func (f Footprints) ReadPlan(u store.Update, rel string) ReadPlan {
	var rp ReadPlan
	for _, cl := range f.c.programOf(u).claims {
		switch {
		case cl.rel != rel:
		case cl.col < 0:
			rp.Mirror = true
		default:
			if rg := cl.rangeOf(u.Tuple); !slices.ContainsFunc(rp.Ranges, rg.Equal) {
				rp.Ranges = append(rp.Ranges, rg)
			}
		}
	}
	if rp.Mirror {
		// A whole read supersedes the bounded ones: the refresh must cover
		// everything anyway.
		rp.Ranges = nil
	}
	return rp
}
