package core

import (
	"math/bits"
	"slices"

	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/ineq"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/store"
	"repro/internal/subsume"
)

// cacheEntry holds the update-independent parts of the staged pipeline
// for one constraint and one update pattern. The paper's phases 1, 1.5
// and 2 depend only on the constraint set, the updated relation, the
// update direction and — for phase 2 — the order type of the tuple's
// verdict-relevant values, all known when the constraint set changes. An
// entry belongs to a step of the pattern's program (progStep.entry), goes
// with it when the constraint set changes, and is immutable.
type cacheEntry struct {
	mentions bool // phase 1: constraint mentions the relation
	polarity bool // phase 1.5: monotone-safe in this direction
	// guard is phase 2 compiled (compileGuard); nil where the step has no
	// phase-2 test: no order type certifies, too many types, or a decision
	// never consults phase 2 for the step.
	guard *orderGuard
}

// unaffectedEntry is the entry of every constraint that does not mention
// the pattern's relation: phase 1 decides.
var unaffectedEntry = &cacheEntry{}

func buildCacheEntry(prog *ast.Program, rel string, insert bool) *cacheEntry {
	if !prog.Mentions(rel) {
		return unaffectedEntry
	}
	return &cacheEntry{
		mentions: true,
		polarity: classify.UpdateMonotoneSafe(prog, ast.PanicPred, rel, insert),
	}
}

// relevantInsertPositions computes which components of a tuple inserted
// into rel can influence the Section 4 rewrite+subsumption verdict for
// prog. The insertion rewriting (Theorem 4.2) introduces the new tuple
// only as the auxiliary fact rel$ins(t); expanding the rewritten program
// unifies that fact with the occurrences of rel, so component t[p] can
// reach a subsumption question only through an occurrence whose argument
// at position p is a constant (unification succeeds or fails depending on
// t[p]) or a variable with another occurrence in its rule (the binding
// propagates t[p] into the rest of the body). An argument that is always
// a once-occurring variable absorbs t[p] and vanishes, so the verdict is
// identical for every value of that component and the position is left
// out of the order type.
func relevantInsertPositions(prog *ast.Program, rel string) (relevant []bool, all bool) {
	for _, r := range prog.Rules {
		if r.Head.Pred == rel {
			// The constraint (re)defines the updated relation: the
			// rewriting renames the head too and the analysis above no
			// longer applies. Be conservative.
			return nil, true
		}
		counts := map[string]int{}
		bump := func(t ast.Term) {
			if t.IsVar() {
				counts[t.Var]++
			}
		}
		for _, a := range r.Head.Args {
			bump(a)
		}
		for _, l := range r.Body {
			if l.IsComp() {
				bump(l.Comp.Left)
				bump(l.Comp.Right)
				continue
			}
			for _, a := range l.Atom.Args {
				bump(a)
			}
		}
		for _, l := range r.Body {
			if l.IsComp() || l.Atom.Pred != rel {
				continue
			}
			for p, a := range l.Atom.Args {
				for len(relevant) <= p {
					relevant = append(relevant, false)
				}
				if a.IsConst() || counts[a.Var] > 1 {
					relevant[p] = true
				}
			}
		}
	}
	return relevant, false
}

// guardTypeCap bounds the order types compileGuard asks Section 4 about
// for one pattern: past it the step gets no phase-2 test, which is sound
// because phase 2 only spares work. No pattern of the repository's
// constraint sets has more than 133 types, and none that gets a guard
// more than 13 (EXPERIMENTS.md "Phase-2 guards").
const guardTypeCap = 256

// orderGuard is a pattern's phase 2 compiled: the order types of the
// verdict-relevant values that Section 4's rewriting and subsumption
// certify. The order type of a tuple says how each relevant value
// compares with every constant of the constraint set and with the other
// relevant values. The subsumption test decides comparisons over a dense
// order (internal/ineq) and meets the tuple only through those
// comparisons, so tuples of one order type share a verdict; one
// representative per type decides it when the constraint set changes
// (compileGuard). A decision computes its tuple's type code and looks it
// up: no lock, no allocation, no call into rewrite or subsume.
type orderGuard struct {
	// pos are the relevant positions; consts the set's constants, sorted
	// and distinct; certified the codes of the certifying types, sorted.
	pos       []int
	consts    []ast.Value
	certified []uint64
}

// admits reports whether phase 2 certifies the tuple.
func (g *orderGuard) admits(t relation.Tuple) bool {
	_, ok := slices.BinarySearch(g.certified, g.code(t))
	return ok
}

// code numbers the order type of t's relevant values: per position, its
// slot among the constants (2j+1 on constant j, 2j strictly between
// constants j-1 and j), then, per pair of positions, their comparison.
// The pairs are redundant where the slots differ; numbering every pair
// keeps the code one-to-one without a variable length.
func (g *orderGuard) code(t relation.Tuple) uint64 {
	slotsN := uint64(2*len(g.consts) + 1)
	var code uint64
	for _, p := range g.pos {
		j, found := slices.BinarySearchFunc(g.consts, t[p], ast.Value.Compare)
		slot := uint64(2 * j)
		if found {
			slot++
		}
		code = code*slotsN + slot
	}
	for i, p := range g.pos {
		for _, q := range g.pos[i+1:] {
			code = code*3 + uint64(t[p].Compare(t[q])+1)
		}
	}
	return code
}

// setConstants returns the constants of the constraint programs, sorted
// and distinct: what a relevant value's order type is taken against.
func setConstants(progs []*ast.Program) []ast.Value {
	var out []ast.Value
	add := func(ts []ast.Term) {
		for _, t := range ts {
			if t.IsConst() {
				out = append(out, t.Const)
			}
		}
	}
	for _, p := range progs {
		for _, r := range p.Rules {
			add(r.Head.Args)
			for _, l := range r.Body {
				if l.IsComp() {
					add([]ast.Term{l.Comp.Left, l.Comp.Right})
				} else {
					add(l.Atom.Args)
				}
			}
		}
	}
	slices.SortFunc(out, ast.Value.Compare)
	return slices.CompactFunc(out, ast.Value.Equal)
}

// compileGuard runs Section 4 once per order type of the pattern's
// relevant positions (guardPositions), on a representative tuple of that
// type, and returns the guard of the certifying types: nil when none
// certifies or the pattern has more than guardTypeCap types.
func (c *Checker) compileGuard(k *Constraint, key progKey) *orderGuard {
	g := &orderGuard{pos: guardPositions(k.Prog, key), consts: c.consts}
	reps, ok := orderTypes(len(g.pos), g.consts)
	if !ok {
		return nil
	}
	for _, vals := range reps {
		t := make(relation.Tuple, key.arity)
		for p := range t {
			t[p] = ast.Int(0) // an irrelevant position: any value
		}
		for i, p := range g.pos {
			t[p] = vals[i]
		}
		res, err := rewrite.UpdateSafeAmong(k.Prog, c.progs, store.Update{Relation: key.rel, Insert: key.insert, Tuple: t})
		if err == nil && res.Verdict == subsume.Yes {
			g.certified = append(g.certified, g.code(t))
		}
	}
	if len(g.certified) == 0 {
		return nil
	}
	slices.Sort(g.certified)
	return g
}

// guardPositions returns the positions of the pattern's tuples that
// phase 2's verdict can depend on: every position of a deleted tuple,
// whose rewriting (Theorem 4.3) splices each component in, and the
// relevant ones of an inserted tuple (relevantInsertPositions).
func guardPositions(prog *ast.Program, key progKey) []int {
	relevant, all := relevantInsertPositions(prog, key.rel)
	var pos []int
	for p := 0; p < key.arity; p++ {
		if all || !key.insert || p < len(relevant) && relevant[p] {
			pos = append(pos, p)
		}
	}
	return pos
}

// orderTypes returns one representative of every order type of n values
// against the sorted, distinct constants consts, or false when there are
// more than guardTypeCap types or their codes would not fit a uint64.
// The representatives are drawn from a sample domain — the constants, and
// n increasing values inside each interval between neighbours
// (ineq.Between) — which holds every order type of n values; of the
// tuples over it that share a code, the first stands for their type.
// Where ineq.Between finds no string between two strings, the interval
// supplies fewer values, and the types it cannot hold get no
// representative: no guard certifies them, which is sound.
func orderTypes(n int, consts []ast.Value) ([]relation.Tuple, bool) {
	g := &orderGuard{pos: make([]int, n), consts: consts}
	space, slotsN := uint64(1), uint64(2*len(consts)+1)
	for i := range g.pos {
		g.pos[i] = i
		for _, f := range []uint64{slotsN, pow3(i)} {
			hi, lo := bits.Mul64(space, f)
			if hi != 0 {
				return nil, false
			}
			space = lo
		}
	}
	var dom []ast.Value
	for j := 0; j <= len(consts); j++ {
		var lo, hi *ast.Value
		if j > 0 {
			lo = &consts[j-1]
		}
		if j < len(consts) {
			hi = &consts[j]
		}
		for k := 0; k < n; k++ {
			v, err := ineq.Between(lo, hi)
			if err != nil {
				break
			}
			dom = append(dom, v)
			lo = &v
		}
		if hi != nil {
			dom = append(dom, *hi)
		}
	}
	seen := map[uint64]bool{}
	var reps []relation.Tuple
	idx, vals := make([]int, n), make(relation.Tuple, n)
	for {
		for i, d := range idx {
			vals[i] = dom[d]
		}
		if c := g.code(vals); !seen[c] {
			if seen[c] = true; len(seen) > guardTypeCap {
				return nil, false
			}
			reps = append(reps, vals.Clone())
		}
		i := 0
		for ; i < n; i++ {
			if idx[i]++; idx[i] < len(dom) {
				break
			}
			idx[i] = 0
		}
		if i == n {
			break
		}
	}
	return reps, true
}

// pow3 returns 3^i: the comparisons code numbers for position i with the
// positions before it.
func pow3(i int) uint64 {
	p := uint64(1)
	for ; i > 0; i-- {
		p *= 3
	}
	return p
}
