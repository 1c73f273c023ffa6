package core

import (
	"strconv"
	"sync"

	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/relation"
)

// phase2CacheCap bounds the per-entry concrete-verdict memo; streams of
// never-repeating tuples reset it instead of growing without bound.
const phase2CacheCap = 4096

// cacheEntry memoizes the update-independent parts of the staged
// pipeline for one constraint and one update pattern. The paper's phases
// 1, 1.5 and (partially) 2 depend only on the constraint text, the
// constraint set, the updated relation and the update direction — not on
// the concrete tuple. An entry belongs to a step of the pattern's program
// (progStep.entry) and goes with it when the constraint set changes.
//
// Phase-2 verdicts are additionally keyed by the tuple's projection onto
// its verdict-relevant positions (see relevantInsertPositions), so one
// rewrite+subsumption run covers every tuple that agrees on those
// positions — the whole relation when none are relevant. The memo is safe
// for concurrent use by decisions that overlap.
type cacheEntry struct {
	mentions    bool   // phase 1: constraint mentions the relation
	polarity    bool   // phase 1.5: monotone-safe in this direction
	allRelevant bool   // phase 2 key needs the full tuple
	relevant    []bool // else: positions that can influence the verdict

	mu     sync.Mutex
	phase2 map[string]bool // projected-tuple key -> phase-2 certified
}

// unaffectedEntry is the entry of every constraint that does not mention
// the pattern's relation: phase 1 decides, and nothing is memoized.
var unaffectedEntry = &cacheEntry{}

func buildCacheEntry(prog *ast.Program, rel string, insert bool) *cacheEntry {
	if !prog.Mentions(rel) {
		return unaffectedEntry
	}
	e := &cacheEntry{
		mentions: true,
		polarity: classify.UpdateMonotoneSafe(prog, ast.PanicPred, rel, insert),
		phase2:   map[string]bool{},
	}
	if !insert {
		// Both deletion rewritings (Theorem 4.3) splice every component
		// of the deleted tuple into the rewritten constraint (the
		// per-component <>-split), so every position can influence the
		// verdict.
		e.allRelevant = true
		return e
	}
	e.relevant, e.allRelevant = relevantInsertPositions(prog, rel)
	return e
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
// identical for every value of that component and the position can be
// projected out of the memo key.
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

// appendProjKey appends the projection of the tuple onto the entry's
// verdict-relevant positions to dst: tuples agreeing on those positions
// share one phase-2 verdict. No value is rendered through fmt or interned
// (relation.AppendValueKey).
func (e *cacheEntry) appendProjKey(dst []byte, t relation.Tuple) []byte {
	// The arity prefix keeps tuples of different lengths apart even when
	// they agree on (or lack) every relevant position: an arity-mismatch
	// update fails the rewriting rather than being certified, and must not
	// share a memo slot with a well-formed one.
	dst = strconv.AppendInt(dst, int64(len(t)), 10)
	dst = append(dst, ';')
	if e.allRelevant {
		return t.AppendKey(dst)
	}
	for p, rel := range e.relevant {
		if rel && p < len(t) {
			dst = strconv.AppendInt(dst, int64(p), 10)
			dst = append(dst, ':')
			dst = relation.AppendValueKey(dst, t[p])
		}
	}
	return dst
}

// phase2Get returns the memoized phase-2 verdict for the projected key;
// a lookup allocates nothing.
func (e *cacheEntry) phase2Get(key []byte) (certified, ok bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	certified, ok = e.phase2[string(key)]
	return certified, ok
}

// phase2Put memoizes a phase-2 verdict, resetting the memo at capacity.
func (e *cacheEntry) phase2Put(key []byte, certified bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.phase2) >= phase2CacheCap {
		e.phase2 = map[string]bool{}
	}
	e.phase2[string(key)] = certified
}
