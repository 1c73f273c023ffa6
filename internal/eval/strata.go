// Package eval evaluates datalog programs with stratified negation and
// arithmetic comparison subgoals, bottom-up and semi-naively. Its join
// engine (vm.go) is the only one in the repository: it runs rule bodies
// here and the compiled residual checks of internal/residual. Full
// evaluation by this package is what every partial-information test in
// the paper (subsumption, update rewriting, complete local tests) is
// validated against; internal/eval/naive, brute-force grounding that
// shares none of its code, is what it is validated against in turn.
package eval

import (
	"fmt"
	"sort"

	"repro/internal/ast"
)

// depEdge is an edge head -> bodyPred in the predicate dependency graph,
// marked negative when the body occurrence is negated.
type depEdge struct {
	from, to string
	negative bool
}

// Stratify splits the IDB predicates of prog into strata such that every
// positive dependency stays within or below a stratum and every negative
// dependency points strictly below. It returns the strata bottom-up, or
// an error when the program is not stratifiable (a negation inside a
// recursive cycle).
func Stratify(prog *ast.Program) ([][]string, error) {
	idb := prog.IDBPreds()
	var edges []depEdge
	adj := map[string][]string{}
	for _, r := range prog.Rules {
		for _, l := range r.Body {
			if l.IsComp() {
				continue
			}
			if !idb[l.Atom.Pred] {
				continue
			}
			edges = append(edges, depEdge{from: r.Head.Pred, to: l.Atom.Pred, negative: l.IsNeg()})
			adj[r.Head.Pred] = append(adj[r.Head.Pred], l.Atom.Pred)
		}
	}
	// Strongly connected components of the dependency graph.
	var preds []string
	for p := range idb {
		preds = append(preds, p)
	}
	sort.Strings(preds)
	comp := sccStrings(preds, adj)
	// A negative edge within one SCC means negation through recursion.
	for _, e := range edges {
		if e.negative && comp[e.from] == comp[e.to] {
			return nil, fmt.Errorf("eval: program is not stratifiable: %s depends negatively on %s within a recursive component", e.from, e.to)
		}
	}
	// Longest-path layering over the condensation: stratum(c) >=
	// stratum(dep) for positive edges, > for negative edges.
	ncomp := 0
	for _, c := range comp {
		if c+1 > ncomp {
			ncomp = c + 1
		}
	}
	stratum := make([]int, ncomp)
	for changed := true; changed; {
		changed = false
		for _, e := range edges {
			cf, ct := comp[e.from], comp[e.to]
			if cf == ct {
				continue
			}
			need := stratum[ct]
			if e.negative {
				need++
			}
			if stratum[cf] < need {
				stratum[cf] = need
				changed = true
				if stratum[cf] > len(preds) {
					return nil, fmt.Errorf("eval: internal error: stratum overflow")
				}
			}
		}
	}
	maxS := 0
	for _, s := range stratum {
		if s > maxS {
			maxS = s
		}
	}
	out := make([][]string, maxS+1)
	for _, p := range preds {
		s := stratum[comp[p]]
		out[s] = append(out[s], p)
	}
	for _, layer := range out {
		sort.Strings(layer)
	}
	return out, nil
}

// sccStrings computes SCC ids for string nodes (iterative Tarjan).
func sccStrings(nodes []string, adj map[string][]string) map[string]int {
	index := map[string]int{}
	low := map[string]int{}
	comp := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	next, ncomp := 0, 0

	type frame struct {
		v  string
		ei int
	}
	for _, root := range nodes {
		if _, seen := index[root]; seen {
			continue
		}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		callStack := []frame{{v: root}}
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				if _, seen := index[w]; !seen {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					callStack = append(callStack, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			callStack = callStack[:len(callStack)-1]
			if len(callStack) > 0 {
				p := &callStack[len(callStack)-1]
				if low[v] < low[p.v] {
					low[p.v] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	return comp
}
