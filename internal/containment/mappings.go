// Package containment implements query containment for the constraint
// classes of the paper:
//
//   - ContainsCQ / ContainsCQUnion: Chandra–Merlin homomorphism tests for
//     conjunctive queries and unions of CQs (complete without negation or
//     arithmetic; constants and repeated variables allowed).
//   - Theorem51 / Theorem51Union: the paper's Theorem 5.1 test for CQs
//     with arithmetic comparisons under the Section 5 normal form — all
//     containment mappings are collected and a single implication over
//     the comparisons is checked (internal/ineq).
//   - Klug / KlugUnion: Klug's [1988] linearization test, the comparator
//     the paper argues against: enumerate every total order of C1's terms
//     consistent with A(C1), build the canonical database, and require C2
//     to fire on each (complete for CQs with arithmetic, constants and
//     repeated variables allowed).
//   - ContainsWithNegation: complete containment for CQs with negated
//     subgoals (no arithmetic) via countermodel search over canonical
//     domains, encoded into SAT (internal/sat), following the
//     small-countermodel property behind Levy and Sagiv [1993].
//   - SoundContains: a sound but incomplete mapping-based test for the
//     full language mix (negation and arithmetic together), used as a
//     fast first phase.
//   - Expand: unfolding of nonrecursive programs into unions of single
//     rules, including the negated-intermediate shapes produced by the
//     Section 4 update rewritings.
package containment

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/relation"
)

// Mapping is a containment mapping: a substitution on the source rule's
// variables whose application sends the source head to the target head
// and every source subgoal to some target subgoal.
type Mapping = ast.Subst

// Mappings returns every containment mapping from the ordinary (positive)
// subgoals of src into the ordinary subgoals of dst, consistent with
// mapping src's head to dst's head. Target terms are treated as frozen:
// src variables bind to dst terms, constants must match exactly. Mappings
// that differ only in subgoal choice but agree on all variables are
// deduplicated.
//
// Negated subgoals and comparisons of both rules are ignored here; the
// callers (Theorem 5.1, sound tests) handle them.
func Mappings(src, dst *ast.Rule) []Mapping {
	// Index dst subgoals by predicate.
	byPred := map[string][]ast.Atom{}
	for _, a := range dst.PositiveAtoms() {
		byPred[a.Pred] = append(byPred[a.Pred], a)
	}
	// One scratch mapping threads the whole search; bindings added by a
	// candidate are recorded on the trail and unwound on backtrack, so
	// only the solutions themselves are cloned.
	h := Mapping{}
	var trail []string
	if !matchAtomTrail(src.Head, dst.Head, h, &trail) {
		return nil
	}
	srcAtoms, cands, ok := orderCandidates(src.PositiveAtoms(), byPred, h)
	if !ok {
		return nil // some subgoal has no compatible target: no mapping exists
	}
	var out []Mapping
	seen := map[string]bool{}
	var rec func(i int)
	rec = func(i int) {
		if i == len(srcAtoms) {
			key := mappingKey(h)
			if !seen[key] {
				seen[key] = true
				out = append(out, h.Clone())
			}
			return
		}
		for _, target := range cands[i] {
			mark := len(trail)
			if matchAtomTrail(srcAtoms[i], target, h, &trail) {
				rec(i + 1)
			}
			for len(trail) > mark {
				delete(h, trail[len(trail)-1])
				trail = trail[:len(trail)-1]
			}
		}
	}
	rec(0)
	return out
}

// HasMapping reports whether at least one containment mapping exists; it
// short-circuits rather than enumerating.
func HasMapping(src, dst *ast.Rule) bool {
	byPred := map[string][]ast.Atom{}
	for _, a := range dst.PositiveAtoms() {
		byPred[a.Pred] = append(byPred[a.Pred], a)
	}
	h := Mapping{}
	var trail []string
	if !matchAtomTrail(src.Head, dst.Head, h, &trail) {
		return false
	}
	srcAtoms, cands, ok := orderCandidates(src.PositiveAtoms(), byPred, h)
	if !ok {
		return false
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(srcAtoms) {
			return true
		}
		for _, target := range cands[i] {
			mark := len(trail)
			if matchAtomTrail(srcAtoms[i], target, h, &trail) && rec(i+1) {
				return true
			}
			for len(trail) > mark {
				delete(h, trail[len(trail)-1])
				trail = trail[:len(trail)-1]
			}
		}
		return false
	}
	return rec(0)
}

// orderCandidates precomputes, for each positive src subgoal, the dst
// subgoals compatible with the head bindings already in h, and returns
// the subgoals reordered fewest-candidates-first (stable on ties) along
// with their candidate lists. Trying the most constrained subgoal first
// fails fast: a wrong early binding is discovered after the smallest
// candidate product, not after exhausting a wide one. A subgoal with no
// compatible candidate at all proves no mapping exists (ok is false), so
// callers skip the search entirely. h is used as scratch during the
// compatibility probes but left exactly as given.
func orderCandidates(srcAtoms []ast.Atom, byPred map[string][]ast.Atom, h Mapping) (atoms []ast.Atom, cands [][]ast.Atom, ok bool) {
	type entry struct {
		atom  ast.Atom
		cands []ast.Atom
	}
	entries := make([]entry, 0, len(srcAtoms))
	var scratch []string
	for _, a := range srcAtoms {
		var cs []ast.Atom
		for _, target := range byPred[a.Pred] {
			mark := len(scratch)
			if matchAtomTrail(a, target, h, &scratch) {
				cs = append(cs, target)
			}
			for len(scratch) > mark {
				delete(h, scratch[len(scratch)-1])
				scratch = scratch[:len(scratch)-1]
			}
		}
		if len(cs) == 0 {
			return nil, nil, false
		}
		entries = append(entries, entry{a, cs})
	}
	sort.SliceStable(entries, func(i, j int) bool { return len(entries[i].cands) < len(entries[j].cands) })
	atoms = make([]ast.Atom, len(entries))
	cands = make([][]ast.Atom, len(entries))
	for i, e := range entries {
		atoms[i] = e.atom
		cands[i] = e.cands
	}
	return atoms, cands, true
}

// matchAtomTrail extends h so that h(src) == dst, treating dst's terms as
// frozen constants. It mutates h, appending each variable it binds to
// trail, and reports success; on failure the partial bindings stay on the
// trail for the caller to unwind.
func matchAtomTrail(src, dst ast.Atom, h Mapping, trail *[]string) bool {
	if src.Pred != dst.Pred || len(src.Args) != len(dst.Args) {
		return false
	}
	for i, s := range src.Args {
		d := dst.Args[i]
		if s.IsConst() {
			if !d.IsConst() || !s.Const.Equal(d.Const) {
				return false
			}
			continue
		}
		if b, ok := h[s.Var]; ok {
			if !b.Equal(d) {
				return false
			}
			continue
		}
		h[s.Var] = d
		*trail = append(*trail, s.Var)
	}
	return true
}

// mappingKey canonicalizes a mapping for deduplication.
func mappingKey(h Mapping) string {
	type pair struct{ v, k string }
	pairs := make([]pair, 0, len(h))
	size := 0
	for v, t := range h {
		// Constant terms render through the intern pool's precomputed key
		// table (relation.ValueKey) instead of rebuilding the string; the
		// mapping search deduplicates after every full assignment, so this
		// sits on containment's hot path.
		k := t.Key()
		if t.IsConst() {
			k = "C" + relation.ValueKey(t.Const)
		}
		p := pair{v, k}
		pairs = append(pairs, p)
		size += len(p.v) + len(p.k) + 2
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	var sb strings.Builder
	sb.Grow(size)
	for _, p := range pairs {
		sb.WriteString(p.v)
		sb.WriteByte('=')
		sb.WriteString(p.k)
		sb.WriteByte(';')
	}
	return sb.String()
}

// ContainsCQ reports C1 ⊑ C2 for pure conjunctive queries (no negation,
// no arithmetic; constants and repeated variables allowed): by
// Chandra–Merlin, C1 ⊑ C2 iff a containment mapping sends C2 into C1.
func ContainsCQ(c1, c2 *ast.Rule) (bool, error) {
	for _, r := range []*ast.Rule{c1, c2} {
		if r.HasNegation() || r.HasComparison() {
			return false, fmt.Errorf("containment: ContainsCQ requires pure CQs, got %s", r)
		}
	}
	return HasMapping(c2, c1), nil
}

// ContainsCQUnion reports C ⊑ C1 ∪ … ∪ Cn for pure CQs. By Sagiv and
// Yannakakis [1981], without arithmetic this holds iff C is contained in
// some single member.
func ContainsCQUnion(c *ast.Rule, union []*ast.Rule) (bool, error) {
	for _, m := range union {
		ok, err := ContainsCQ(c, m)
		if err != nil {
			return false, err
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}
