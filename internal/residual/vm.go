package residual

import (
	"sync"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/store"
)

// The residual VM. A disjunct is a straight-line plan of steps —
// comparisons (unification guards included), negated-atom probes, and
// positive-atom joins — over three argument kinds: compile-time
// constants, update-tuple positions (parameters), and registers holding
// values bound by earlier join steps. Because the plan order is fixed at
// compile time, register boundness is static: every column of every
// atom is classified once as probe / check / bind / repeat-check, and
// the runtime needs no substitution map, no trail, and no per-decision
// allocation beyond a pooled scratch.

type argKind uint8

const (
	argConst argKind = iota
	argParam         // update-tuple position idx
	argReg           // register idx
)

type arg struct {
	kind argKind
	val  ast.Value
	idx  int
}

type stepKind uint8

const (
	stepComp stepKind = iota
	stepPos
	stepNeg
)

// step is one VM instruction. For stepPos, the column classification is
// precomputed: probeCols/probeArgs form the indexed lookup signature
// (empty under DisableIndexes — candidates then arrive by scan and every
// bound column moves to checkCols), bindCols load fresh registers, and
// repCols verify registers first bound at an earlier column of this same
// atom. A step with no probe column may have ranges instead: bounds on
// columns it binds, taken from the order comparisons planned right after
// it (rangeLo/rangeHi hold the bounds' arguments), so its candidates come
// from the narrowest range of an ordered index rather than a scan — the
// comparisons still filter them. self marks an atom over the updated
// relation itself: the one kind of step whose read of the database is
// adjusted by the update (run).
type step struct {
	kind stepKind
	self bool
	// stepComp
	op   ast.CompOp
	l, r arg
	// stepPos / stepNeg
	pred      string
	args      []arg
	probeCols []int
	probeArgs []arg
	checkCols []int
	checkArgs []arg
	bindCols  []int
	bindRegs  []int
	repCols   []int
	repRegs   []int
	ranges    []relation.Range
	rangeLo   []arg
	rangeHi   []arg
}

// disjunct is one compiled residual disjunct: its plan, how many
// registers the plan uses and, where the pattern has one, the local
// certificate probed ahead of the plan.
type disjunct struct {
	steps []step
	regs  int
	cert  *certificate
}

// witness probes the disjunct's certificate for the update tuple t: a
// stored tuple that certifies the disjunct, or nil — no certificate was
// compiled, or no stored tuple agrees with t where it has to.
func (d *disjunct) witness(db *store.Store, t relation.Tuple, sc *scratch) relation.Tuple {
	if d.cert == nil {
		return nil
	}
	lv := sc.level(0)
	vals := lv.vals[:0]
	for _, c := range d.cert.cols {
		vals = append(vals, t[c])
	}
	lv.vals = vals
	return db.FirstCols(d.cert.pred, len(t), d.cert.cols, vals, d.cert.same)
}

// plan orders the symbolic body into a disjunct: comparisons and
// negations at the earliest point their variables are bound, positive
// atoms greedily most-bound-first (textual order under DisableIndexes),
// mirroring the main evaluator's join planning, and ranged where they have
// no probe column but an order comparison bounds a column they bind
// (rangeBound). It returns nil when a positive atom over an existing
// relation of disagreeing arity makes the disjunct underivable; negated
// atoms in that situation are vacuously true and are dropped instead.
func plan(body []slit, rel string, db *store.Store, opts Options) *disjunct {
	d := &disjunct{}
	regOf := map[string]int{}
	bound := map[string]bool{}
	reg := func(name string) int {
		if i, ok := regOf[name]; ok {
			return i
		}
		i := len(regOf)
		regOf[name] = i
		return i
	}
	mkArg := func(s sterm) arg {
		switch s.kind {
		case stConst:
			return arg{kind: argConst, val: s.val}
		case stParam:
			return arg{kind: argParam, idx: s.pos}
		}
		return arg{kind: argReg, idx: reg(s.name)}
	}
	var pending, positives []slit
	litReady := func(l slit) bool {
		if l.comp {
			return (l.l.kind != stVar || bound[l.l.name]) && (l.r.kind != stVar || bound[l.r.name])
		}
		for _, a := range l.args {
			if a.kind == stVar && !bound[a.name] {
				return false
			}
		}
		return true
	}
	emit := func(l slit) bool {
		if l.comp {
			d.steps = append(d.steps, step{kind: stepComp, op: l.op, l: mkArg(l.l), r: mkArg(l.r)})
			return true
		}
		st := step{kind: stepNeg, pred: l.pred, self: l.pred == rel}
		if !l.neg {
			st.kind = stepPos
		}
		if rel := db.Relation(l.pred); rel != nil && rel.Arity() != len(l.args) {
			// The stored relation can never match the atom (Insert enforces
			// uniform arity): a positive atom kills the disjunct, a negated
			// one is vacuously true. The cache keys on the store's schema
			// version, so this fold never outlives the shape it saw.
			return l.neg
		}
		inAtom := map[string]int{}
		for i, a := range l.args {
			st.args = append(st.args, mkArg(a))
			switch {
			case a.kind != stVar || bound[a.name]:
				probed := !l.neg && !opts.DisableIndexes
				if probed {
					st.probeCols = append(st.probeCols, i)
					st.probeArgs = append(st.probeArgs, st.args[i])
				}
				if !probed || st.self {
					// A self step checks its probed columns as well: the
					// pending tuple joins the candidates unprobed.
					st.checkCols = append(st.checkCols, i)
					st.checkArgs = append(st.checkArgs, st.args[i])
				}
			default:
				if r, seen := inAtom[a.name]; seen {
					st.repCols = append(st.repCols, i)
					st.repRegs = append(st.repRegs, r)
				} else {
					r := reg(a.name)
					inAtom[a.name] = r
					st.bindCols = append(st.bindCols, i)
					st.bindRegs = append(st.bindRegs, r)
				}
			}
		}
		if !l.neg && !opts.DisableIndexes && len(st.probeCols) == 0 {
			for _, c := range pending {
				if col, op, b, ok := rangeBound(c, &st, inAtom, bound); ok {
					st.addBound(col, op, mkArg(b))
				}
			}
		}
		for name := range inAtom {
			bound[name] = true
		}
		d.steps = append(d.steps, st)
		return true
	}
	for _, l := range body {
		if l.comp || l.neg {
			pending = append(pending, l)
		} else {
			positives = append(positives, l)
		}
	}
	flushReady := func() bool {
		rest := pending[:0]
		for _, l := range pending {
			if litReady(l) {
				if !emit(l) {
					return false
				}
			} else {
				rest = append(rest, l)
			}
		}
		pending = rest
		return true
	}
	if !flushReady() {
		return nil // only vacuous negations drop; emit never fails here
	}
	for len(positives) > 0 {
		pick := 0
		if !opts.DisableIndexes {
			best := -1
			for idx, l := range positives {
				score := 0
				for _, a := range l.args {
					if a.kind != stVar || bound[a.name] {
						score++
					}
				}
				if score > best {
					best, pick = score, idx
				}
			}
		}
		l := positives[pick]
		positives = append(positives[:pick], positives[pick+1:]...)
		if !emit(l) {
			return nil // dead positive atom: disjunct underivable
		}
		if !flushReady() {
			return nil
		}
	}
	// Safe rules bind every comparison/negation variable through positive
	// atoms, so nothing remains pending by construction; a leftover would
	// mean an unsafe source rule, which constraint admission rejects.
	if len(pending) > 0 {
		return nil
	}
	d.regs = len(regOf)
	return d
}

// rangeBound orients the comparison c as "column col of st op b", where
// the column binds a variable st binds first (inAtom) and b is bound
// before st: a constant, a parameter or an earlier register. ok is false
// for any other literal, and for = and <>, which bound no range.
func rangeBound(c slit, st *step, inAtom map[string]int, bound map[string]bool) (col int, op ast.CompOp, b sterm, ok bool) {
	if !c.comp || c.op == ast.Eq || c.op == ast.Ne {
		return 0, 0, sterm{}, false
	}
	before := func(s sterm) bool { return s.kind != stVar || bound[s.name] }
	fresh := func(s sterm) (int, bool) {
		r, in := inAtom[s.name]
		if s.kind != stVar || !in {
			return 0, false
		}
		for j, reg := range st.bindRegs {
			if reg == r {
				return st.bindCols[j], true
			}
		}
		return 0, false
	}
	if col, in := fresh(c.l); in && before(c.r) {
		return col, c.op, c.r, true
	}
	if col, in := fresh(c.r); in && before(c.l) {
		return col, c.op.Flip(), c.l, true
	}
	return 0, 0, sterm{}, false
}

// addBound bounds column col of a ranged step by "col op b", unless the
// column already has a bound on that side: a column keeps its first lower
// and its first upper bound.
func (st *step) addBound(col int, op ast.CompOp, b arg) {
	i := 0
	for i < len(st.ranges) && st.ranges[i].Col != col {
		i++
	}
	if i == len(st.ranges) {
		st.ranges = append(st.ranges, relation.Range{Col: col})
		st.rangeLo = append(st.rangeLo, arg{})
		st.rangeHi = append(st.rangeHi, arg{})
	}
	rg := &st.ranges[i]
	switch {
	case (op == ast.Lt || op == ast.Le) && !rg.HasHi:
		rg.HasHi, rg.HiOpen, st.rangeHi[i] = true, op == ast.Lt, b
	case (op == ast.Gt || op == ast.Ge) && !rg.HasLo:
		rg.HasLo, rg.LoOpen, st.rangeLo[i] = true, op == ast.Gt, b
	}
}

// scratch is the pooled per-Decide state: the register file and one
// candidate buffer per join depth.
type scratch struct {
	regs   []ast.Value
	levels []levelScratch
}

type levelScratch struct {
	vals   []ast.Value
	tups   []relation.Tuple
	ranges []relation.Range
}

var scratchPool = sync.Pool{New: func() any { return &scratch{} }}

func (sc *scratch) level(i int) *levelScratch {
	for len(sc.levels) <= i {
		sc.levels = append(sc.levels, levelScratch{})
	}
	return &sc.levels[i]
}

// Decide reports whether panic is derivable once the compiled update of
// tuple t is applied to db — whether the update violates the constraint —
// reading db as it stands before the update and never writing it. It is
// safe for concurrent use; t must agree with the compiled pattern on the
// pinned positions (the cache guarantees this).
//
// db must be the state the constraint is known to hold in. A residual
// without certificates answers the same on a db that already holds the
// update; one with certificates would take the new tuple for its own
// witness there.
func (r *Residual) Decide(db *store.Store, t relation.Tuple) bool {
	violated, _ := r.decide(db, t, false)
	return violated
}

// DecideWitness is Decide that also says when local certificates alone
// decided: witness is a stored tuple that certified a disjunct when every
// disjunct was certified — no plan ran and nothing but the updated
// relation was read — and nil otherwise.
func (r *Residual) DecideWitness(db *store.Store, t relation.Tuple) (violated bool, witness relation.Tuple) {
	return r.decide(db, t, false)
}

// Certified runs the certificates and nothing else: the witness
// DecideWitness would return, so non-nil means Decide(db, t) is false
// and reads only the updated relation.
func (r *Residual) Certified(db *store.Store, t relation.Tuple) relation.Tuple {
	_, witness := r.decide(db, t, true)
	return witness
}

// decide runs each disjunct's certificate and, unless it finds a witness,
// its plan; under certOnly it gives up at the first disjunct that would
// need its plan.
func (r *Residual) decide(db *store.Store, t relation.Tuple, certOnly bool) (violated bool, witness relation.Tuple) {
	switch r.outcome {
	case AlwaysSafe:
		return false, nil
	case AlwaysViolating:
		return true, nil
	}
	sc := scratchPool.Get().(*scratch)
	if cap(sc.regs) < r.maxRegs {
		sc.regs = make([]ast.Value, r.maxRegs)
	}
	sc.regs = sc.regs[:cap(sc.regs)]
	certified := true
	for _, d := range r.disjuncts {
		if w := d.witness(db, t, sc); w != nil {
			if witness == nil {
				witness = w
			}
			continue
		}
		certified = false
		if certOnly {
			break
		}
		if r.run(d, 0, db, t, sc) {
			violated = true
			break
		}
	}
	scratchPool.Put(sc)
	if !certified {
		witness = nil
	}
	return violated, witness
}

// value resolves an argument against the update tuple and register file.
func value(a arg, t relation.Tuple, regs []ast.Value) ast.Value {
	switch a.kind {
	case argConst:
		return a.val
	case argParam:
		return t[a.idx]
	}
	return regs[a.idx]
}

// run executes the plan from step si; true means the disjunct derived.
// Reads of the updated relation (step.self) are adjusted to what it will
// hold; all others are the store's.
func (r *Residual) run(d *disjunct, si int, db *store.Store, t relation.Tuple, sc *scratch) bool {
	if si == len(d.steps) {
		return true
	}
	st := &d.steps[si]
	switch st.kind {
	case stepComp:
		return st.op.Eval(value(st.l, t, sc.regs), value(st.r, t, sc.regs)) &&
			r.run(d, si+1, db, t, sc)
	case stepNeg:
		lv := sc.level(si)
		vals := lv.vals[:0]
		for _, a := range st.args {
			vals = append(vals, value(a, t, sc.regs))
		}
		lv.vals = vals
		has := db.Probe(st.pred, relation.Tuple(vals))
		if st.self && t.Equal(relation.Tuple(vals)) {
			has = r.insert
		}
		return !has && r.run(d, si+1, db, t, sc)
	}
	lv := sc.level(si)
	var cands []relation.Tuple
	switch {
	case len(st.probeCols) > 0:
		vals := lv.vals[:0]
		for _, a := range st.probeArgs {
			vals = append(vals, value(a, t, sc.regs))
		}
		lv.vals = vals
		cands = db.LookupColsAppend(lv.tups[:0], st.pred, st.probeCols, vals)
	case len(st.ranges) > 0:
		ranges := append(lv.ranges[:0], st.ranges...)
		for i := range ranges {
			if ranges[i].HasLo {
				ranges[i].Lo = value(st.rangeLo[i], t, sc.regs)
			}
			if ranges[i].HasHi {
				ranges[i].Hi = value(st.rangeHi[i], t, sc.regs)
			}
		}
		lv.ranges = ranges
		cands = db.RangeAppend(lv.tups[:0], st.pred, len(st.args), ranges)
	default:
		cands = db.TuplesAppend(lv.tups[:0], st.pred)
	}
	// t joins under an insert (the step's checks filter it), leaves under a delete.
	if st.self && r.insert {
		cands = append(cands, t)
	}
	deleted := st.self && !r.insert
	lv.tups = cands
	for _, tu := range cands {
		if len(tu) != len(st.args) || (deleted && t.Equal(tu)) {
			continue // another arity (relation unseen at compile time), or the tuple going
		}
		ok := true
		for j, ci := range st.checkCols {
			if !value(st.checkArgs[j], t, sc.regs).Equal(tu[ci]) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		for j, ci := range st.bindCols {
			sc.regs[st.bindRegs[j]] = tu[ci]
		}
		for j, ci := range st.repCols {
			if !sc.regs[st.repRegs[j]].Equal(tu[ci]) {
				ok = false
				break
			}
		}
		if ok && r.run(d, si+1, db, t, sc) {
			return true
		}
	}
	return false
}
