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
// The read claims need it for one reason each: a decision that reads a
// remote relation first rewrites its mirror — one key group on the
// shard-key column, or the whole relation — so its claim on that
// relation may be no finer than what the refresh rewrites (ReadPlan names
// the key groups to fetch); and a task that touches a remote relation
// may wait on a site (sched.Footprint.Wire).
type Sharder interface {
	// Remote reports whether rel is mirrored from remote sites.
	Remote(rel string) bool
	// ShardKey returns the column rel's mirror is refreshed by, one key
	// group at a time, and ok=true when there is one (a hash-partitioned
	// relation with routing on); ok=false when the mirror is only ever
	// refreshed as a whole.
	ShardKey(rel string) (col int, ok bool)
}

// claim is one read a decision of a pattern may make, in terms of the
// update tuple: the whole relation (col < 0), or the key group of column
// col whose key is the tuple's value at pos, or key when pos < 0. A
// program's claims are the union of its steps' (compile): a step the
// pattern-level phases decide claims nothing, a compiled check the other
// literals of each disjunct (residualClaim), any other step every
// relation its evaluation reads.
type claim struct {
	rel      string
	col, pos int
	key      relation.Handle
	// eval marks a dynamic step's read: phase 3 or an evaluation, which a
	// coordinator's probe router serves, rather than a compiled check.
	eval bool
}

// remote reports whether rel is mirrored from a site.
func (c *Checker) remote(rel string) bool {
	return c.opts.Sharder != nil && c.opts.Sharder.Remote(rel)
}

// residualClaim is what a compiled check reads of one literal of a
// disjunct, σ being the disjunct's substitution (residual.Reads): the key
// group of the first column σ binds to a tuple position, failing that of
// the first column a constant fixes, and the whole relation where neither
// does — a key flowing in from a join ranges over data the update does
// not determine. The probe binds the keyed column, so a tuple outside the
// group is never a candidate. Any such column is sound for a relation
// stored here; a remote one may be keyed on its shard-key column only,
// because the decision refreshes the mirror before it reads it and a
// refresh that is not of that key group rewrites the whole relation.
func (c *Checker) residualClaim(lit ast.Atom, sigma map[string]int) claim {
	cl := claim{rel: lit.Pred, col: -1}
	lo, hi := 0, len(lit.Args) // the columns the claim may be keyed on
	if c.remote(cl.rel) {
		kc, ok := c.opts.Sharder.ShardKey(cl.rel)
		if !ok || kc >= hi {
			return cl
		}
		lo, hi = kc, kc+1
	}
	for col := lo; col < hi; col++ {
		a := lit.Args[col]
		if pos, bound := sigma[a.Var]; a.IsVar() && bound {
			return claim{rel: cl.rel, col: col, pos: pos}
		}
		if a.IsConst() && cl.col < 0 {
			cl.col, cl.pos, cl.key = col, -1, relation.Intern(a.Const)
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
			p.claims = append(p.claims, claim{rel: rel, col: -1, eval: true})
		}
	} else {
		residual.Reads(s.k.flat, key.rel, key.insert, key.arity, func(lit ast.Atom, sigma map[string]int) {
			p.claims = append(p.claims, c.residualClaim(lit, sigma))
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
	fp, hs := f.reads(u)
	fp.Wire = fp.Wire || f.c.remote(u.Relation)
	fp.Writes = []sched.Write{{Relation: u.Relation, FP: relation.FingerprintHandles(hs), Cols: hs}}
	return fp
}

// Check footprints a check of u: the reads of its decision alone. A check
// writes nothing, so it waits for, and holds back, only writes into what
// it reads — not other checks, nor a write of its own tuple, which its
// verdict does not depend on — and it is Wire only if a read is.
func (f Footprints) Check(u store.Update) sched.Footprint {
	fp, _ := f.reads(u)
	return fp
}

// Batch footprints a set of updates applied as one atomic task.
func (f Footprints) Batch(us []store.Update) sched.Footprint {
	var fp sched.Footprint
	for _, u := range us {
		fp = fp.Union(f.Update(u))
	}
	return fp
}

// reads instantiates the claims of u's program for its tuple, whose
// interned handles it returns too.
func (f Footprints) reads(u store.Update) (sched.Footprint, []relation.Handle) {
	hs := make([]relation.Handle, len(u.Tuple))
	for i, v := range u.Tuple {
		hs[i] = relation.Intern(v)
	}
	p := f.c.programOf(u)
	fp := sched.Footprint{Wire: p.wire}
	if len(p.claims) > 0 {
		fp.Reads = make([]sched.Read, 0, len(p.claims))
	}
	for _, cl := range p.claims {
		r := sched.Read{Relation: cl.rel}
		if cl.col >= 0 {
			r.Keyed, r.Col, r.Key = true, cl.col, cl.key
			if cl.pos >= 0 {
				r.Key = hs[cl.pos]
			}
		}
		if !slices.Contains(fp.Reads, r) {
			fp.Reads = append(fp.Reads, r)
		}
	}
	return fp, hs
}

// ReadPlan classifies how a decision of one update reads one relation,
// for a coordinator choosing what to refresh before it. All fields zero
// means the decision never reads the relation.
type ReadPlan struct {
	// Keys are the exact shard-key values the compiled checks probe the
	// relation with — set only when every compiled-check read of it is
	// such a probe. A refresh that ships just those key groups makes the
	// mirror exactly as fresh as the checks need, and they are the groups
	// the update's footprint claims.
	Keys []ast.Value
	// Mirror: a compiled check may range over the relation outside any key
	// group of the shard-key column, so the mirror must be refreshed in
	// full.
	Mirror bool
	// Eval: a constraint left to phase 3 or an evaluation reads the
	// relation, which an evaluation-level probe router can serve at probe
	// time — no mirror refresh on that account.
	Eval bool
}

// ReadPlan instantiates the claims of u's program on rel for its tuple.
func (f Footprints) ReadPlan(u store.Update, rel string) ReadPlan {
	var rp ReadPlan
	kc, sharded := -1, false
	if f.c.opts.Sharder != nil {
		kc, sharded = f.c.opts.Sharder.ShardKey(rel)
	}
next:
	for _, cl := range f.c.programOf(u).claims {
		switch {
		case cl.rel != rel:
		case cl.eval:
			rp.Eval = true
		case cl.col < 0 || !sharded || cl.col != kc:
			rp.Mirror = true
		default:
			h := cl.key
			if cl.pos >= 0 {
				h = relation.Intern(u.Tuple[cl.pos])
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
		// A whole read supersedes the keyed view: the refresh must cover
		// everything anyway.
		rp.Keys = nil
	}
	return rp
}
