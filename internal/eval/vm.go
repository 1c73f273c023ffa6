package eval

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/store"
)

// The join engine. A rule body — or a residual disjunct (internal/
// residual) — is planned once into a straight-line Plan of steps:
// comparisons, negated-atom membership tests and positive-atom joins, over
// three argument kinds: constants, update-tuple positions (parameters) and
// registers holding what earlier joins bound. Because the plan order
// is fixed at plan time, register boundness is static: every column of
// every atom is classified once as probe / check / bind / repeat-check, so
// the runtime needs no substitution map, no trail and no per-run
// allocation beyond the pooled evaluator. A plan ends in an emit (a rule's
// head tuple) or, for a residual disjunct, in "derived". Every read goes
// through the evaluator's source (fetch, contains): the store as it will
// be once the pending updates are applied, or a derived relation (rowSet)
// — a from-scratch result, a semi-naive delta, or a kept fixpoint's rows.
// A coordinator's store is its mirror, refreshed before the decision with
// what the decision reads of remote relations, so a remote relation is
// read like any other.
//
// The runtime works on interned handles (relation.Handle): registers,
// probe keys, candidate rows and emitted heads are handles, so a join
// compares and hashes integers and the rows of stored and derived
// relations are read in place. A constant is interned when it is planned;
// a parameter when a run first uses it as a probe key, a bound column or
// an emitted value, never for a mere comparison. A value comes back from
// the pool (relation.InternedValue, lock-free) only where one is needed:
// an order comparison, a range bound, or a materialized result.

// TermKind says what a planned term stands for.
type TermKind uint8

const (
	TermConst TermKind = iota // a constant, Val
	TermParam                 // position Pos of the update tuple, bound before the plan runs
	TermVar                   // the rule variable Name, bound by the plan
)

// Term is one argument of a literal the planner orders.
type Term struct {
	Kind TermKind
	Val  ast.Value
	Pos  int
	Name string
}

// Lit is a body literal over Terms: the comparison L Op R when Comp is
// set, the atom Pred(Args) — negated under Neg — otherwise.
type Lit struct {
	Comp bool
	Op   ast.CompOp
	L, R Term
	Neg  bool
	Pred string
	Args []Term
}

type argKind uint8

const (
	argConst argKind = iota
	argParam         // update-tuple position idx
	argReg           // register idx
)

type arg struct {
	kind argKind
	val  ast.Value
	h    relation.Handle // argConst: val's handle
	idx  int
}

type stepKind uint8

const (
	stepComp stepKind = iota
	stepPos
	stepNeg
)

// step is one instruction. For stepPos, probeCols/probeArgs form the
// indexed lookup signature (empty on the scan arm — candidates then
// arrive by scan and every bound column moves to checkCols), bindCols load
// fresh registers, and repCols verify registers first bound at an earlier
// column of this same atom. A stored-relation step with no probe column
// may have ranges instead: bounds on columns it binds, taken from the
// order comparisons planned right after it (rangeLo/rangeHi hold the
// bounds' arguments), so its candidates come from the narrowest range of
// an ordered index rather than a scan — the comparisons still filter them.
// body is the literal's position in the planned body, which names the
// semi-naive delta literal; slot is the derived predicate's (-1: a stored
// relation). A stepComp over = or <> with no parameter side compares
// handles (byHandle); every other comparison compares values.
type step struct {
	kind stepKind
	body int
	slot int
	// stepComp
	op       ast.CompOp
	l, r     arg
	byHandle bool
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

// Plan is a planned body: its steps, how many registers they use and,
// for a rule, the slot of its head predicate and the head its derivations
// emit. A plan with no head (headSlot -1) is an existence test: the first
// derivation ends the run. Plans are immutable and safe to run
// concurrently.
type Plan struct {
	steps    []step
	regs     int
	headSlot int
	head     []arg
}

// planSpec is what the planner needs beyond the body.
type planSpec struct {
	// slots number the predicates the evaluation derives; they are never
	// ranged.
	slots map[string]int
	// scan keeps positive atoms in textual order with no probe and no
	// range (the DisableIndexes discipline).
	scan bool
	// first, when >= 0, is the body index of a positive literal that runs
	// before every other positive literal: a delta-seeded run starts each
	// rule from its delta literal.
	first int
	// head is the rule head, nil for an existence test (a residual
	// disjunct). An existence test plans a positive atom all of whose
	// arguments are bound — one probe that binds nothing and can only prune
	// — before any that binds a variable. A rule keeps most-bound-first:
	// its joins read no more store tuples than its scan arm, which reads in
	// textual order, and a probe moved ahead of a comparison that would have
	// pruned it can read more.
	head *ast.Atom
}

// PlanBody plans a residual disjunct as an existence test (HoldsAfter),
// on the scan arm when scan is set. It reads no store: an atom reads the
// stored relation of its name and arity at run time, and nothing of a
// relation stored with another arity.
func PlanBody(body []Lit, scan bool) *Plan {
	return planBody(body, planSpec{scan: scan, first: -1})
}

// compileRule plans rule r's body for the evaluator; slots number the
// program's derived predicates, first is as in planSpec.
func compileRule(r *ast.Rule, slots map[string]int, scan bool, first int) *Plan {
	body := make([]Lit, len(r.Body))
	for i, l := range r.Body {
		if l.IsComp() {
			body[i] = Lit{Comp: true, Op: l.Comp.Op, L: termOf(l.Comp.Left), R: termOf(l.Comp.Right)}
			continue
		}
		body[i] = Lit{Neg: l.IsNeg(), Pred: l.Atom.Pred, Args: termsOf(l.Atom.Args)}
	}
	return planBody(body, planSpec{slots: slots, scan: scan, first: first, head: &r.Head})
}

func termOf(a ast.Term) Term {
	if a.IsVar() {
		return Term{Kind: TermVar, Name: a.Var}
	}
	return Term{Kind: TermConst, Val: a.Const}
}

func termsOf(as []ast.Term) []Term {
	out := make([]Term, len(as))
	for i, a := range as {
		out[i] = termOf(a)
	}
	return out
}

// planBody orders the body: comparisons and negations at the earliest
// point their variables are bound, positive atoms greedily most-bound-first
// (ties and the scan arm in textual order; in an existence test, an atom
// all of whose arguments are bound before any that binds a variable), and
// ranged where they have no
// probe column but an order comparison bounds a column they bind
// (rangeBound). Safe rules bind every variable through positive atoms, so
// nothing stays unplanned; constraint and program validation reject the
// others, and the planner returns nil for them.
func planBody(body []Lit, sp planSpec) *Plan {
	p := &Plan{headSlot: -1}
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
	mkArg := func(s Term) arg {
		switch s.Kind {
		case TermConst:
			return arg{kind: argConst, val: s.Val, h: relation.Intern(s.Val)}
		case TermParam:
			return arg{kind: argParam, idx: s.Pos}
		}
		return arg{kind: argReg, idx: reg(s.Name)}
	}
	before := func(s Term) bool { return s.Kind != TermVar || bound[s.Name] }
	var pending, positives []int
	ready := func(l *Lit) bool {
		if l.Comp {
			return before(l.L) && before(l.R)
		}
		for _, a := range l.Args {
			if !before(a) {
				return false
			}
		}
		return true
	}
	emit := func(bi int) {
		l := &body[bi]
		if l.Comp {
			byHandle := (l.Op == ast.Eq || l.Op == ast.Ne) && l.L.Kind != TermParam && l.R.Kind != TermParam
			p.steps = append(p.steps, step{kind: stepComp, body: bi, slot: -1, op: l.Op, l: mkArg(l.L), r: mkArg(l.R), byHandle: byHandle})
			return
		}
		st := step{kind: stepNeg, body: bi, slot: -1, pred: l.Pred}
		if slot, derived := sp.slots[l.Pred]; derived {
			st.slot = slot
		}
		if !l.Neg {
			st.kind = stepPos
		}
		inAtom := map[string]int{}
		for i, a := range l.Args {
			st.args = append(st.args, mkArg(a))
			switch {
			case l.Neg:
			case before(a) && !sp.scan:
				st.probeCols = append(st.probeCols, i)
				st.probeArgs = append(st.probeArgs, st.args[i])
			case before(a):
				st.checkCols = append(st.checkCols, i)
				st.checkArgs = append(st.checkArgs, st.args[i])
			default:
				if r, seen := inAtom[a.Name]; seen {
					st.repCols = append(st.repCols, i)
					st.repRegs = append(st.repRegs, r)
				} else {
					r := reg(a.Name)
					inAtom[a.Name] = r
					st.bindCols = append(st.bindCols, i)
					st.bindRegs = append(st.bindRegs, r)
				}
			}
		}
		if !l.Neg && !sp.scan && st.slot < 0 && len(st.probeCols) == 0 {
			for _, ci := range pending {
				if col, op, b, ok := rangeBound(&body[ci], &st, inAtom, bound); ok {
					st.addBound(col, op, mkArg(b))
				}
			}
		}
		for name := range inAtom {
			bound[name] = true
		}
		p.steps = append(p.steps, st)
	}
	for bi, l := range body {
		if l.Comp || l.Neg {
			pending = append(pending, bi)
		} else {
			positives = append(positives, bi)
		}
	}
	flushReady := func() {
		rest := pending[:0]
		for _, bi := range pending {
			if ready(&body[bi]) {
				emit(bi)
			} else {
				rest = append(rest, bi)
			}
		}
		pending = rest
	}
	flushReady()
	for len(positives) > 0 {
		// The forced first literal, while it is unplanned; then bound-first.
		pick := slices.Index(positives, sp.first)
		if pick < 0 && !sp.scan {
			best := -1
			for idx, bi := range positives {
				score := 0
				for _, a := range body[bi].Args {
					if before(a) {
						score++
					}
				}
				if score == len(body[bi].Args) && sp.head == nil {
					score = math.MaxInt // binds nothing: one probe that can only prune
				}
				if score > best {
					best, pick = score, idx
				}
			}
		}
		pick = max(pick, 0)
		bi := positives[pick]
		positives = slices.Delete(positives, pick, pick+1)
		emit(bi)
		flushReady()
	}
	if len(pending) > 0 {
		return nil
	}
	if sp.head != nil {
		p.headSlot = sp.slots[sp.head.Pred]
		for _, a := range sp.head.Args {
			t := termOf(a)
			if !before(t) {
				return nil
			}
			p.head = append(p.head, mkArg(t))
		}
	}
	p.regs = len(regOf)
	return p
}

// rangeBound orients the comparison c as "column col of st op b", where
// the column binds a variable st binds first (inAtom) and b is bound
// before st: a constant, a parameter or an earlier register. ok is false
// for any other literal, and for = and <>, which bound no range.
func rangeBound(c *Lit, st *step, inAtom map[string]int, bound map[string]bool) (col int, op ast.CompOp, b Term, ok bool) {
	if !c.Comp || c.Op == ast.Eq || c.Op == ast.Ne {
		return 0, 0, Term{}, false
	}
	before := func(s Term) bool { return s.Kind != TermVar || bound[s.Name] }
	fresh := func(s Term) (int, bool) {
		r, in := inAtom[s.Name]
		if s.Kind != TermVar || !in {
			return 0, false
		}
		for j, reg := range st.bindRegs {
			if reg == r {
				return st.bindCols[j], true
			}
		}
		return 0, false
	}
	if col, in := fresh(c.L); in && before(c.R) {
		return col, c.Op, c.R, true
	}
	if col, in := fresh(c.R); in && before(c.L) {
		return col, c.Op.Flip(), c.L, true
	}
	return 0, 0, Term{}, false
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

// Len is the number of steps; 0 means the body holds whatever the store
// holds.
func (p *Plan) Len() int { return len(p.steps) }

// HoldsAfter reports whether the plan derives over db as it will be once
// the updates prior and then u are applied, reading db as it stands and
// never writing it; u.Tuple supplies the parameters. It is the residual
// disjunct's test.
func (p *Plan) HoldsAfter(db *store.Store, prior []store.Update, u store.Update) bool {
	ev := getEvaluator()
	ev.db = db
	ev.pend(prior, u)
	err := ev.runPlan(p)
	// db and the updates are all the run state a residual run sets:
	// clearing them is release on the hot path.
	ev.db, ev.prior, ev.upd = nil, nil, store.Update{}
	evaluators.Put(ev)
	return errors.Is(err, errGoalDerived)
}

// Literals renders the plan's steps back into AST form under the
// parameters t, registers as fresh R$n variables.
func (p *Plan) Literals(t relation.Tuple) []ast.Literal {
	term := func(a arg) ast.Term {
		switch a.kind {
		case argConst:
			return ast.C(a.val)
		case argParam:
			return ast.C(t[a.idx])
		}
		return ast.V(fmt.Sprintf("R$%d", a.idx))
	}
	out := make([]ast.Literal, len(p.steps))
	for i := range p.steps {
		s := &p.steps[i]
		if s.kind == stepComp {
			out[i] = ast.Cmp(ast.NewComparison(term(s.l), s.op, term(s.r)))
			continue
		}
		args := make([]ast.Term, len(s.args))
		for j, a := range s.args {
			args[j] = term(a)
		}
		atom := ast.Atom{Pred: s.pred, Args: args}
		out[i] = ast.Pos(atom)
		if s.kind == stepNeg {
			out[i] = ast.Neg(atom)
		}
	}
	return out
}

// Ranges renders the plan's range steps: per step the relation, then per
// range its column and bounds — [ or ( before a lower bound, ] or ) after
// an upper one, nothing where a side is open; parameters as $i, registers
// as R$i.
func (p *Plan) Ranges() string {
	bound := func(a arg) string {
		switch a.kind {
		case argConst:
			return a.val.String()
		case argParam:
			return fmt.Sprintf("$%d", a.idx)
		}
		return fmt.Sprintf("R$%d", a.idx)
	}
	var sb strings.Builder
	for _, st := range p.steps {
		if len(st.ranges) == 0 {
			continue
		}
		sb.WriteString(st.pred + "{")
		for i, rg := range st.ranges {
			if i > 0 {
				sb.WriteByte(' ')
			}
			fmt.Fprintf(&sb, "%d:", rg.Col)
			if rg.HasLo {
				sb.WriteString(map[bool]string{false: "[", true: "("}[rg.LoOpen] + bound(st.rangeLo[i]))
			}
			sb.WriteByte(',')
			if rg.HasHi {
				sb.WriteString(bound(st.rangeHi[i]) + map[bool]string{false: "]", true: ")"}[rg.HiOpen])
			}
		}
		sb.WriteString("}")
	}
	return sb.String()
}

// Unranged is p with its range steps fetching their candidates by scan:
// the plan as it would run without ordered indexes, the reference range
// steps are held to.
func (p *Plan) Unranged() *Plan {
	out := *p
	out.steps = slices.Clone(p.steps)
	for i := range out.steps {
		out.steps[i].ranges = nil
	}
	return &out
}

// level is the scratch of one plan depth: the probe key (or the ground
// tuple of a negated subgoal), the fetched candidate rows and the bounds
// of a range step.
type level struct {
	key    []relation.Handle
	rows   [][]relation.Handle
	ranges []relation.Range
}

// runPlan sizes the registers and levels for p and runs it from its first
// step.
func (ev *evaluator) runPlan(p *Plan) error {
	for len(ev.levels) < len(p.steps) {
		ev.levels = append(ev.levels, level{})
	}
	if len(ev.regs) < p.regs {
		ev.regs = make([]relation.Handle, p.regs)
	}
	return ev.run(p, 0)
}

// unset marks a parameter whose handle the run has not needed yet.
const unset = ^relation.Handle(0)

// pend makes prior and then u the updates the run reads pending; u's
// tuple is also the parameters, interned on first use.
func (ev *evaluator) pend(prior []store.Update, u store.Update) {
	ev.prior, ev.upd = prior, u
	ev.params = ev.params[:0]
	for range u.Tuple {
		ev.params = append(ev.params, unset)
	}
	ev.priorRows = ev.priorRows[:0]
	for range prior {
		ev.priorRows = append(ev.priorRows, nil)
	}
	ev.priorBuf = ev.priorBuf[:0]
}

// param returns the handle of parameter i, interning it on first use.
func (ev *evaluator) param(i int) relation.Handle {
	if ev.params[i] == unset {
		ev.params[i] = relation.Intern(ev.upd.Tuple[i])
	}
	return ev.params[i]
}

// pendingRow returns the handle row of pending update i — of prior, or
// of upd for -1 — interning it on first use.
func (ev *evaluator) pendingRow(i int) []relation.Handle {
	if i < 0 {
		for c := range ev.params {
			ev.param(c)
		}
		return ev.params
	}
	if ev.priorRows[i] == nil {
		lo := len(ev.priorBuf)
		ev.priorBuf = relation.AppendHandles(ev.priorBuf, ev.prior[i].Tuple)
		ev.priorRows[i] = ev.priorBuf[lo:len(ev.priorBuf):len(ev.priorBuf)]
	}
	return ev.priorRows[i]
}

// handle resolves an argument to its handle.
func (ev *evaluator) handle(a arg) relation.Handle {
	switch a.kind {
	case argConst:
		return a.h
	case argParam:
		return ev.param(a.idx)
	}
	return ev.regs[a.idx]
}

// value resolves an argument to its value: a parameter straight from the
// update tuple, a register from the intern pool.
func (ev *evaluator) value(a arg) ast.Value {
	switch a.kind {
	case argConst:
		return a.val
	case argParam:
		return ev.upd.Tuple[a.idx]
	}
	return relation.InternedValue(ev.regs[a.idx])
}

// compare decides a comparison step: equal handles are equal values, and
// the order is the values'.
func (ev *evaluator) compare(st *step) bool {
	if st.byHandle {
		return (ev.handle(st.l) == ev.handle(st.r)) == (st.op == ast.Eq)
	}
	return st.op.Eval(ev.value(st.l), ev.value(st.r))
}

// run executes p from step si. errGoalDerived unwinds a derivation that
// ends the evaluation.
func (ev *evaluator) run(p *Plan, si int) error {
	if si == len(p.steps) {
		return ev.emit(p)
	}
	st := &p.steps[si]
	lv := &ev.levels[si]
	switch st.kind {
	case stepComp:
		if !ev.compare(st) {
			return nil
		}
		return ev.run(p, si+1)
	case stepNeg:
		key := lv.key[:0]
		for _, a := range st.args {
			key = append(key, ev.handle(a))
		}
		lv.key = key
		if ev.contains(st, lv) {
			return nil
		}
		return ev.run(p, si+1)
	}
	for _, row := range ev.fetch(st, lv) {
		if !ev.match(st, row) {
			continue
		}
		if err := ev.run(p, si+1); err != nil {
			return err
		}
	}
	return nil
}

// match checks candidate row against the step's check columns, loads its
// bind columns into registers and verifies its repeat columns.
func (ev *evaluator) match(st *step, row []relation.Handle) bool {
	for j, ci := range st.checkCols {
		if ev.handle(st.checkArgs[j]) != row[ci] {
			return false
		}
	}
	for j, ci := range st.bindCols {
		ev.regs[st.bindRegs[j]] = row[ci]
	}
	for j, ci := range st.repCols {
		if ev.regs[st.repRegs[j]] != row[ci] {
			return false
		}
	}
	return true
}

// emit ends one derivation: an existence test is answered, a rule's head
// row goes into its relation — and, when fresh in a semi-naive round,
// into the next round's delta.
func (ev *evaluator) emit(p *Plan) error {
	if p.headSlot < 0 {
		return errGoalDerived
	}
	// Build the head into the pooled buffer; add copies a fresh row, so
	// the buffer may be reused at once.
	ht := ev.head[:0]
	for _, a := range p.head {
		ht = append(ht, ev.handle(a))
	}
	ev.head = ht
	fresh := ev.sets[p.headSlot].add(ht)
	if fresh && ev.next != nil {
		ev.next[p.headSlot].add(ht)
	}
	if fresh && p.headSlot == ev.stop {
		return errGoalDerived
	}
	return nil
}

// fetch returns the candidate rows of a positive step into the level's
// buffers: the delta literal's rows, a derived relation's, or the store's
// as the pending update leaves them — by indexed probe on the probe
// columns, by range, or by scan.
func (ev *evaluator) fetch(st *step, lv *level) [][]relation.Handle {
	key := lv.key[:0]
	for _, a := range st.probeArgs {
		key = append(key, ev.handle(a))
	}
	lv.key = key
	cols, dst := st.probeCols, lv.rows[:0]
	switch {
	case st.body == ev.deltaPos && ev.delta != nil:
		dst = ev.delta[st.slot].lookup(dst, cols, key)
	case st.body == ev.deltaPos && st.slot >= 0:
		dst = ev.sets[st.slot].scan(dst, ev.dlo, ev.dhi, cols, key)
	case st.body == ev.deltaPos:
		// The inserted relation's delta is the inserted tuple, if it agrees
		// with the literal's arity and probe columns; what earlier pending
		// inserts derived is in the rows already.
		dst = ev.adjust(dst, -1, st.pred, len(st.args), cols, key)
	case st.slot >= 0:
		// Derived relations are not charged: they are scratch space.
		dst = ev.sets[st.slot].lookup(dst, cols, key)
	default:
		switch {
		case len(cols) > 0:
			dst = ev.db.LookupColsAppend(dst, st.pred, len(st.args), cols, key)
		case len(st.ranges) > 0:
			ranges := append(lv.ranges[:0], st.ranges...)
			for i := range ranges {
				if ranges[i].HasLo {
					ranges[i].Lo = ev.value(st.rangeLo[i])
				}
				if ranges[i].HasHi {
					ranges[i].Hi = ev.value(st.rangeHi[i])
				}
			}
			lv.ranges = ranges
			dst = ev.db.RangeAppend(dst, st.pred, len(st.args), ranges)
		default:
			dst = ev.db.TuplesAppend(dst, st.pred, len(st.args))
		}
		if ev.prior != nil || st.pred == ev.upd.Relation {
			dst = ev.pending(dst, st.pred, len(st.args), cols, key)
		}
	}
	lv.rows = dst
	return dst
}

// contains is the membership test of a negated step for the ground row
// in lv.key: in the derived relation, or in the stored one as the pending
// update leaves it.
func (ev *evaluator) contains(st *step, lv *level) bool {
	if st.slot >= 0 {
		return ev.sets[st.slot].contains(lv.key)
	}
	if has, decided := ev.pendingHas(st.pred, lv.key); decided {
		return has
	}
	return ev.db.Probe(st.pred, lv.key)
}

// pending adjusts what the store answered to a positive
// read of the stored relation pred — the rows, of an arity-ar atom, that
// carry key on cols — to what it will hold once ev.prior and then ev.upd
// are applied, in place. With pendingHas it is the one place a read sees
// the updates before they are written: deciding an update reads the
// database as it stands.
func (ev *evaluator) pending(rows [][]relation.Handle, pred string, ar int, cols []int, key []relation.Handle) [][]relation.Handle {
	for i := range ev.prior {
		rows = ev.adjust(rows, i, pred, ar, cols, key)
	}
	return ev.adjust(rows, -1, pred, ar, cols, key)
}

// adjust applies pending update i (see pendingRow) to the answer rows of
// a read of pred: an inserted tuple in (where it agrees with the atom's
// arity and the probe key), a deleted one out.
func (ev *evaluator) adjust(rows [][]relation.Handle, i int, pred string, ar int, cols []int, key []relation.Handle) [][]relation.Handle {
	u := &ev.upd
	if i >= 0 {
		u = &ev.prior[i]
	}
	if pred != u.Relation {
		return rows
	}
	if !u.Insert {
		row, n := ev.pendingRow(i), 0
		for _, r := range rows {
			if !slices.Equal(r, row) {
				rows[n] = r
				n++
			}
		}
		return rows[:n]
	}
	if len(u.Tuple) != ar {
		return rows
	}
	for j, c := range cols {
		if ev.pendingCell(i, c) != key[j] {
			return rows
		}
	}
	return append(rows, ev.pendingRow(i))
}

// pendingCell is column c of pendingRow(i), interning no other column of
// upd.
func (ev *evaluator) pendingCell(i, c int) relation.Handle {
	if i < 0 {
		return ev.param(c)
	}
	return ev.pendingRow(i)[c]
}

// pendingHas decides membership of the row hs in the stored relation pred
// where the pending updates do: the last one of it is an insert or a
// delete.
func (ev *evaluator) pendingHas(pred string, hs []relation.Handle) (has, decided bool) {
	if pred == ev.upd.Relation && len(hs) == len(ev.upd.Tuple) && slices.Equal(hs, ev.pendingRow(-1)) {
		return ev.upd.Insert, true
	}
	for i := len(ev.prior) - 1; i >= 0; i-- {
		if u := &ev.prior[i]; u.Relation == pred && len(hs) == len(u.Tuple) && slices.Equal(hs, ev.pendingRow(i)) {
			return u.Insert, true
		}
	}
	return false, false
}
