// Package residual partially evaluates a constraint against the symbolic
// form of an update — relation, polarity, and the argument shape of the
// harmful occurrences — into a compiled residual test that runs on the
// hot path in place of the full staged pipeline.
//
// The construction is the simplified integrity checking of Nicolas
// [1982] as systematized by Lloyd/Topor and Martinenghi, specialized to
// this repository's flat constraints (every rule head is the 0-ary goal
// panic, every body atom a stored relation); a nonrecursive constraint
// with helper predicates is unfolded into that form first (Flatten),
// under which a self-joining helper becomes a self-join of the stored
// relation, every occurrence of it harmful. Under the standing
// invariant that all constraints hold before each update, a panic
// derivation in the updated database must use the update somewhere:
//
//   - inserting t into R can create new derivations only through the
//     positive occurrences of R: for each occurrence, unify its argument
//     vector with t (σ = mgu) and the residual disjunct is σ(body minus
//     that occurrence);
//   - deleting t from R can create new derivations only through the
//     negated occurrences of R (a literal not R(…) can only become true
//     by the deletion): σ as above, and the newly-true literal is
//     dropped from σ(body).
//
// The union of disjuncts over all rules × harmful occurrences is exact:
// panic is derivable after the update iff some disjunct is derivable in
// the updated database. The test reads the database before the update:
// only a disjunct literal over R itself — t matching a second literal —
// reads differently there, and the join engine (internal/eval) reads R
// with the update pending (under an insert t is among R's tuples and not
// R(t) is false; under a delete the opposite).
//
// Compilation is a function of the pattern — relation, polarity, arity —
// and never of the tuple: every tuple position is a runtime parameter
// ($i = t[i]), so one compiled residual serves every tuple of the pattern
// and a constraint's checks are all compiled when it is added. A constant
// c at position i of the occurrence becomes the guard $i = c: a tuple that
// fails a disjunct's guards settles it before its certificate or its plan
// runs, as if the disjunct were not there. Comparisons between constants
// fold; disjuncts whose comparison sets, guards included, are
// unsatisfiable (internal/ineq) are pruned. What remains reduces to one of
// three outcomes: always safe (no disjuncts survive), always violating (an
// unguarded disjunct has an empty body), or a residual goal — typically a
// guard, one indexed probe and a few comparisons.
package residual

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/containment"
	"repro/internal/eval"
	"repro/internal/ineq"
	"repro/internal/relation"
	"repro/internal/store"
)

// Options tune residual compilation; they mirror the evaluator's A/B
// switches so a residual answers exactly like the pipeline arm it
// replaces.
type Options struct {
	// DisableIndexes makes residual joins keep textual atom order and
	// fetch candidates by whole-relation scans instead of bound-first hash
	// probes and range steps (the ccheck -noindex discipline).
	DisableIndexes bool
	// Local, when non-nil, reports whether a relation is resident at the
	// checking site (core.Options.LocalRelations), and turns on the local
	// certificates of inserts into such relations (certificate). Nil —
	// every relation is local, or phase 3 is disabled — compiles none.
	Local func(rel string) bool
}

// Outcome classifies a compiled residual.
type Outcome int

const (
	// AlwaysSafe: no disjunct survived compilation — the update pattern
	// cannot create a panic derivation, whatever the database holds.
	AlwaysSafe Outcome = iota
	// AlwaysViolating: some disjunct reduced to the empty body — the
	// update itself completes a panic derivation, whatever the database
	// holds (given that the constraint held before).
	AlwaysViolating
	// ResidualGoal: a non-trivial residual remains and must be evaluated
	// against the database (Decide).
	ResidualGoal
)

// String names the outcome.
func (o Outcome) String() string {
	switch o {
	case AlwaysSafe:
		return "always-safe"
	case AlwaysViolating:
		return "always-violating"
	case ResidualGoal:
		return "residual-goal"
	}
	return fmt.Sprintf("Outcome(%d)", int(o))
}

// Shape is the compile-relevant skeleton of a (constraint, relation,
// polarity) pattern: whether the pair is residual-eligible at all.
type Shape struct {
	Eligible bool
	// Arity is the widest harmful-occurrence arity (-1 when the
	// constraint has no harmful occurrence of the relation, in which
	// case any tuple is trivially safe).
	Arity int
}

// flatCap bounds the rules of an expansion Flatten accepts: each rule is
// a disjunct per harmful occurrence, compiled for every pattern and run
// on every decision of it.
const flatCap = 32

// Flatten returns prog in the flat form the compiler reads — every rule
// head panic, every body atom a stored relation: prog itself when it is
// flat, else the union of panic rules its helpers unfold into
// (containment.Expand, the Sagiv–Yannakakis expansion). The expansion is
// equivalent to prog on every database, so a check compiled from it
// decides the constraint as written. Flatten returns nil for a recursive
// program, one whose negated helpers Expand refuses, and an expansion of
// more than flatCap rules: the global phase decides those.
func Flatten(prog *ast.Program) *ast.Program {
	if isFlat(prog) {
		return prog
	}
	rules, err := containment.Expand(prog, ast.PanicPred)
	if err != nil || len(rules) > flatCap {
		return nil
	}
	return ast.NewProgram(rules...)
}

// isFlat reports whether prog is in the form the correctness argument rests
// on: every rule head is panic and no body atom mentions panic.
func isFlat(prog *ast.Program) bool {
	for _, r := range prog.Rules {
		if r.Head.Pred != ast.PanicPred {
			return false
		}
		for _, l := range r.Body {
			if !l.IsComp() && l.Atom.Pred == ast.PanicPred {
				return false
			}
		}
	}
	return true
}

// DeriveShape analyzes a constraint in flat form for updates of the given
// polarity on rel. Negation and comparisons are fine; a program that is
// not flat — nil, or one with helper predicates, which Flatten unfolds
// first — and an update of the goal predicate itself are never eligible.
func DeriveShape(prog *ast.Program, rel string, insert bool) Shape {
	if prog == nil || rel == ast.PanicPred || !isFlat(prog) {
		return Shape{}
	}
	sh := Shape{Eligible: true, Arity: -1}
	for _, r := range prog.Rules {
		for _, l := range r.Body {
			if !l.Harmful(rel, insert) {
				continue
			}
			if n := len(l.Atom.Args); n > sh.Arity {
				sh.Arity = n
			}
		}
	}
	return sh
}

// certificate is the complete local test of one harmful occurrence R(ā)
// of an insert of t into a local relation R (paper Section 5, Theorem
// 5.3: for arithmetic-free reductions the test RED(t) ⊑ ∪ RED(s) is a
// selection on R), compiled to one existence probe of R. If a stored
// tuple s of R matches the occurrence — its constants, its repeated
// variables — and agrees with t on every position whose variable the rest
// of the rule can see, then σ_s and σ_t instantiate the rest of the body
// to the same conjunction. That conjunction was not derivable before the
// insert (the constraint held with s present) and it does not read R, so
// it is not derivable after: the disjunct is safe whatever the other
// relations hold, negated or not, and its plan — the part that reads other
// sites' relations — need not run. The test is complete, not only sound,
// when the rest of the body is one literal over the join variables:
// referential integrity.
type certificate struct {
	pred string
	// cols, ascending, are the occurrence positions a witness must share
	// with t: those holding a constant (which t carries too, or the
	// disjunct's guard settled it first) and those whose variable occurs in
	// another literal or in a comparison of the rule.
	cols []int
	// same pairs the positions of a variable the occurrence repeats and
	// nothing else reads: a witness holds one value at both.
	same [][2]int
}

// certificateFor analyzes the occurrence rule.Body[oi] of an update
// pattern the compiler accepts (DeriveShape) and returns the certificate
// of the disjunct it yields, or nil. There is one only for an insert,
// into a relation opts.Local names, when the rest of the body reads some
// relation opts.Local does not — with nothing remote there is nothing to
// save — and never mentions the updated relation again: under a
// self-join the new tuple also feeds the other occurrence, and the rest
// of the body is no longer the same before and after. The certificate is
// an index probe, so the scan discipline (DisableIndexes) compiles none.
func certificateFor(rule *ast.Rule, oi int, insert bool, opts Options) *certificate {
	occ := rule.Body[oi]
	if !insert || opts.Local == nil || opts.DisableIndexes || !occ.IsPos() || !opts.Local(occ.Atom.Pred) {
		return nil
	}
	// Comparisons count as readers: a variable used only in one still
	// decides whether the rest of the body holds.
	visible := map[string]bool{}
	remote := false
	for bi, l := range rule.Body {
		if bi == oi {
			continue
		}
		if !l.IsComp() {
			if l.Atom.Pred == occ.Atom.Pred {
				return nil
			}
			remote = remote || !opts.Local(l.Atom.Pred)
		}
		for _, v := range l.Vars(nil) {
			visible[v] = true
		}
	}
	if !remote {
		return nil
	}
	cert := &certificate{pred: occ.Atom.Pred}
	first := map[string]int{}
	for i, a := range occ.Atom.Args {
		switch j, seen := first[a.Var]; {
		case a.IsConst() || visible[a.Var]:
			cert.cols = append(cert.cols, i)
		case seen:
			cert.same = append(cert.same, [2]int{j, i})
		default:
			first[a.Var] = i
		}
	}
	return cert
}

// Residual is the compiled residual test of one constraint for one update
// pattern (relation, polarity, arity). It is immutable after compilation
// and safe for concurrent Decide calls.
type Residual struct {
	outcome Outcome
	// rel and insert are the compiled update's relation and polarity: the
	// update each plan's reads see pending.
	rel    string
	insert bool
	// disjuncts in rule/occurrence order; empty unless ResidualGoal.
	disjuncts []*disjunct
}

// disjunct is one compiled residual disjunct: its guards, its plan and,
// where the pattern has one, the local certificate probed ahead of the
// plan.
type disjunct struct {
	guards []guard
	plan   *eval.Plan
	cert   *certificate
}

// guard is the comparison $pos = val of a constant in the occurrence.
type guard struct {
	pos int
	val ast.Value
}

// applies reports whether the update tuple t passes the disjunct's
// guards: whether t unifies with the occurrence at its constants.
func (d *disjunct) applies(t relation.Tuple) bool {
	for _, g := range d.guards {
		if !t[g.pos].Equal(g.val) {
			return false
		}
	}
	return true
}

// witness probes the disjunct's certificate for the update tuple t: a
// tuple that certifies the disjunct, or nil — no certificate was compiled,
// or no tuple agrees with t where it has to. A witness is a tuple of db
// once the updates prior are applied, the state the decision is made in:
// the latest insert of prior that agrees and stands, else a stored tuple,
// which certifies nothing when prior deletes it.
func (d *disjunct) witness(db *store.Store, prior []store.Update, t relation.Tuple) relation.Tuple {
	if d.cert == nil {
		return nil
	}
	var buf [8]ast.Value
	vals := buf[:0]
	for _, c := range d.cert.cols {
		vals = append(vals, t[c])
	}
	for i := len(prior) - 1; i >= 0; i-- {
		u := &prior[i]
		if u.Insert && u.Relation == d.cert.pred && len(u.Tuple) == len(t) && d.cert.agrees(u.Tuple, vals) {
			if in, _ := store.Pending(prior, u.Relation, u.Tuple); in {
				return u.Tuple
			}
		}
	}
	w := db.FirstCols(d.cert.pred, len(t), d.cert.cols, vals, d.cert.same)
	if in, touched := store.Pending(prior, d.cert.pred, w); w != nil && touched && !in {
		return nil
	}
	return w
}

// agrees reports whether s carries vals on the certificate's columns and
// one value at both positions of each pair in same.
func (c *certificate) agrees(s relation.Tuple, vals []ast.Value) bool {
	for i, col := range c.cols {
		if !s[col].Equal(vals[i]) {
			return false
		}
	}
	for _, p := range c.same {
		if !s[p[0]].Equal(s[p[1]]) {
			return false
		}
	}
	return true
}

// Outcome reports the compile-time classification.
func (r *Residual) Outcome() Outcome { return r.outcome }

// Disjuncts reports how many residual disjuncts survived compilation.
func (r *Residual) Disjuncts() int { return len(r.disjuncts) }

// Certificates reports how many disjuncts carry a local certificate; 0
// for every residual compiled without Options.Local.
func (r *Residual) Certificates() int {
	n := 0
	for _, d := range r.disjuncts {
		if d.cert != nil {
			n++
		}
	}
	return n
}

// Compile partially evaluates prog, in flat form and eligible for the
// pattern (DeriveShape), against the update pattern: an update of the
// given polarity of a tuple of the given arity in rel. Every tuple
// position is a parameter, so the result serves every tuple of the
// pattern; it reads no database.
func Compile(prog *ast.Program, rel string, insert bool, arity int, opts Options) *Residual {
	res := &Residual{rel: rel, insert: insert}
	for _, o := range occurrences(prog, rel, insert, arity) {
		guards, body, ok := specialize(o.rule, o.oi)
		if !ok {
			continue // unsatisfiable comparisons
		}
		p := eval.PlanBody(body, opts.DisableIndexes)
		if p == nil {
			continue // an unsafe body: validation keeps these out
		}
		if p.Len() == 0 && len(guards) == 0 {
			// The update alone completes a derivation: nothing left to
			// check at runtime and no other disjunct can change that.
			return &Residual{outcome: AlwaysViolating}
		}
		res.disjuncts = append(res.disjuncts, &disjunct{guards: guards, plan: p, cert: certificateFor(o.rule, o.oi, insert, opts)})
	}
	if len(res.disjuncts) > 0 {
		res.outcome = ResidualGoal
	}
	return res
}

// occurrence is a harmful occurrence: body literal oi of rule.
type occurrence struct {
	rule *ast.Rule
	oi   int
}

// occurrences lists, in rule/occurrence order, the harmful occurrences of
// the pattern of the given arity: one disjunct each in a residual of a
// tuple of that arity.
func occurrences(prog *ast.Program, rel string, insert bool, arity int) []occurrence {
	var out []occurrence
	for _, rule := range prog.Rules {
		for oi, l := range rule.Body {
			if l.Harmful(rel, insert) && len(l.Atom.Args) == arity {
				out = append(out, occurrence{rule, oi})
			}
		}
	}
	return out
}

// sigma is the unifier of a harmful occurrence with the update tuple, in
// tuple positions: each variable of occ maps to the first position that
// holds it. A later position holding it again is a guard, not a binding.
func sigma(occ ast.Atom) map[string]int {
	s := make(map[string]int, len(occ.Args))
	for i, a := range occ.Args {
		if _, bound := s[a.Var]; a.IsVar() && !bound {
			s[a.Var] = i
		}
	}
	return s
}

// Reads calls f with every stored-relation literal a residual of a tuple
// of the given arity may read — the other body literals of each harmful
// occurrence of that arity, comparisons aside — in rule/occurrence/literal
// order, with the σ Compile specializes that disjunct by (variable →
// tuple position) and the disjunct's comparisons, which bound what a
// literal's variables may take. It names the literals of every
// disjunct, also of one Compile prunes or whose guards a tuple fails.
func Reads(prog *ast.Program, rel string, insert bool, arity int, f func(lit ast.Atom, sigma map[string]int, comps []ast.Comparison)) {
	for _, o := range occurrences(prog, rel, insert, arity) {
		s := sigma(o.rule.Body[o.oi].Atom)
		var comps []ast.Comparison
		for _, l := range o.rule.Body {
			if l.IsComp() {
				comps = append(comps, l.Comp)
			}
		}
		for bi, l := range o.rule.Body {
			if bi != o.oi && !l.IsComp() {
				f(l.Atom, s, comps)
			}
		}
	}
}

// specialize builds the disjunct of one harmful occurrence: the guards of
// its constants, and the symbolic body σ(body minus the occurrence) plus
// the unification checks of its repeated variables, with ground
// comparisons folded. ok is false when the comparisons, guards included,
// are unsatisfiable.
func specialize(rule *ast.Rule, oi int) (guards []guard, body []eval.Lit, ok bool) {
	occ := rule.Body[oi].Atom
	param := func(i int) eval.Term { return eval.Term{Kind: eval.TermParam, Pos: i} }
	first := sigma(occ)
	sub := make(map[string]eval.Term, len(first))
	for v, i := range first {
		sub[v] = param(i)
	}
	var guardLits []eval.Lit
	for i, a := range occ.Args {
		switch j := first[a.Var]; {
		case a.IsConst():
			guards = append(guards, guard{pos: i, val: a.Const})
			guardLits = append(guardLits, eval.Lit{Comp: true, Op: ast.Eq, L: param(i), R: eval.Term{Kind: eval.TermConst, Val: a.Const}})
		case j != i:
			// Repeated variable in the occurrence: both bindings must agree.
			body = append(body, eval.Lit{Comp: true, Op: ast.Eq, L: param(j), R: param(i)})
		}
	}
	for bi, l := range rule.Body {
		if bi == oi {
			continue
		}
		if l.IsComp() {
			s := eval.Lit{Comp: true, Op: l.Comp.Op, L: applySigma(l.Comp.Left, sub), R: applySigma(l.Comp.Right, sub)}
			if s.L.Kind == eval.TermConst && s.R.Kind == eval.TermConst {
				if !s.Op.Eval(s.L.Val, s.R.Val) {
					return nil, nil, false
				}
				continue // true: drop the folded literal
			}
			body = append(body, s)
			continue
		}
		args := make([]eval.Term, len(l.Atom.Args))
		for i, a := range l.Atom.Args {
			args[i] = applySigma(a, sub)
		}
		body = append(body, eval.Lit{Neg: l.IsNeg(), Pred: l.Atom.Pred, Args: args})
	}
	if !satisfiable(append(guardLits, body...)) {
		return nil, nil, false
	}
	return guards, body, true
}

// applySigma maps one rule term into the symbolic domain.
func applySigma(a ast.Term, sigma map[string]eval.Term) eval.Term {
	if a.IsConst() {
		return eval.Term{Kind: eval.TermConst, Val: a.Const}
	}
	if b, ok := sigma[a.Var]; ok {
		return b
	}
	return eval.Term{Kind: eval.TermVar, Name: a.Var}
}

// satisfiable asks internal/ineq whether the disjunct's comparison
// conjunction admits any assignment, treating
// parameters as fresh variables P$i — a namespace user programs cannot
// produce. An unsatisfiable conjunction makes the disjunct underivable
// for every tuple of the pattern.
func satisfiable(body []eval.Lit) bool {
	var conj []ast.Comparison
	for _, l := range body {
		if !l.Comp {
			continue
		}
		conj = append(conj, ast.NewComparison(symTerm(l.L), l.Op, symTerm(l.R)))
	}
	if len(conj) == 0 {
		return true
	}
	return ineq.Satisfiable(conj)
}

// symTerm renders a term for the ineq solver.
func symTerm(s eval.Term) ast.Term {
	switch s.Kind {
	case eval.TermConst:
		return ast.C(s.Val)
	case eval.TermParam:
		return ast.V(fmt.Sprintf("P$%d", s.Pos))
	}
	return ast.V(s.Name)
}

// Program renders the residual as a plain constraint program for the
// concrete tuple t — the disjuncts whose guards t passes, parameters
// substituted, registers as fresh R$n variables — suitable for
// cross-checking against the full evaluator or shipping to a subquery
// server. It is a program for the updated database: it carries no read
// adjustment. An AlwaysViolating residual renders as the fact panic;
// AlwaysSafe, or one whose guards t fails throughout, as a program with no
// panic rule.
func (r *Residual) Program(t relation.Tuple) *ast.Program {
	prog := ast.NewProgram()
	if r.outcome == AlwaysViolating {
		prog.Rules = append(prog.Rules, ast.Fact(ast.Atom{Pred: ast.PanicPred}))
		return prog
	}
	for _, d := range r.disjuncts {
		if d.applies(t) {
			prog.Rules = append(prog.Rules, &ast.Rule{Head: ast.Atom{Pred: ast.PanicPred}, Body: d.plan.Literals(t)})
		}
	}
	return prog
}

// Decide reports whether panic is derivable once the compiled update of
// tuple t is applied to db — whether the update violates the constraint —
// reading db as it stands before the update and never writing it. It is
// safe for concurrent use; t must have the compiled pattern's arity.
//
// db must be the state the constraint is known to hold in. A residual
// without certificates answers the same on a db that already holds the
// update; one with certificates would take the new tuple for its own
// witness there.
func (r *Residual) Decide(db *store.Store, t relation.Tuple) bool {
	violated, _ := r.decide(db, nil, t, false)
	return violated
}

// DecideWitness is Decide for the update of t made once the updates prior
// are applied to db — the member of a sequence after prior, on a db that
// holds none of them — that also says when local certificates alone
// decided: witness is a tuple of that state that certified a disjunct when
// every disjunct was certified — no plan ran and nothing but the updated
// relation was read — and nil otherwise.
func (r *Residual) DecideWitness(db *store.Store, prior []store.Update, t relation.Tuple) (violated bool, witness relation.Tuple) {
	return r.decide(db, prior, t, false)
}

// Certified runs the certificates and nothing else: the witness
// DecideWitness would return, so non-nil means DecideWitness(db, prior,
// t) finds no violation and reads only the updated relation.
func (r *Residual) Certified(db *store.Store, prior []store.Update, t relation.Tuple) relation.Tuple {
	_, witness := r.decide(db, prior, t, true)
	return witness
}

// decide runs, for each disjunct whose guards t passes, its certificate
// and, unless that finds a witness, its plan over db with prior and the
// update pending; under certOnly it gives up at the first disjunct that
// would need its plan.
func (r *Residual) decide(db *store.Store, prior []store.Update, t relation.Tuple, certOnly bool) (violated bool, witness relation.Tuple) {
	switch r.outcome {
	case AlwaysSafe:
		return false, nil
	case AlwaysViolating:
		return true, nil
	}
	u := store.Update{Insert: r.insert, Relation: r.rel, Tuple: t}
	certified := true
	for _, d := range r.disjuncts {
		if !d.applies(t) {
			continue
		}
		if w := d.witness(db, prior, t); w != nil {
			if witness == nil {
				witness = w
			}
			continue
		}
		certified = false
		if certOnly {
			break
		}
		if d.plan.HoldsAfter(db, prior, u) {
			violated = true
			break
		}
	}
	if !certified {
		witness = nil
	}
	return violated, witness
}
