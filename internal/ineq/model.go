package ineq

import (
	"fmt"
	"math/big"
	"sort"

	"repro/internal/ast"
)

// Model constructs a witness assignment for a satisfiable conjunction:
// a map from variable names to constants that makes every comparison
// true. It returns ok=false when the conjunction is unsatisfiable.
//
// The construction collapses each strongly connected component of the
// constraint graph to one point, orders the components consistently with
// all edges and with the fixed order on constants, and then picks a
// constant for every component inside its (lower, upper) window using
// Between. An error is returned only in the pathological case where the
// string subdomain is not dense enough to supply a value (see the package
// comment); this cannot happen for purely numeric constraints.
func Model(conj []ast.Comparison) (m map[string]ast.Value, ok bool, err error) {
	g := graphs.Get().(*graph)
	defer g.put()
	if !g.build(conj) || !g.consistent() {
		return nil, false, nil
	}
	n := len(g.nodes)
	// consistent validated the component structure and left it in g.scc.
	comp := g.scc.comp
	ncomp := 0
	for i := 0; i < n; i++ {
		if comp[i]+1 > ncomp {
			ncomp = comp[i] + 1
		}
	}
	// Fixed values: components containing a constant.
	fixed := make([]*ast.Value, ncomp)
	for _, id := range g.consts {
		rep := g.find(id)
		v := g.nodes[id].Const
		fixed[comp[rep]] = &v
	}
	// Component DAG edges. All edges are treated as strict between
	// distinct components: assigning strictly increasing values satisfies
	// both <= and < and every <>.
	cadj := make(map[int][]int)
	indeg := make([]int, ncomp)
	seen := map[[2]int]bool{}
	addC := func(u, v int) {
		cu, cv := comp[g.find(u)], comp[g.find(v)]
		if cu == cv || seen[[2]int{cu, cv}] {
			return
		}
		seen[[2]int{cu, cv}] = true
		cadj[cu] = append(cadj[cu], cv)
		indeg[cv]++
	}
	for _, e := range g.lt {
		addC(e[0], e[1])
	}
	for _, e := range g.le {
		addC(e[0], e[1])
	}
	order, okT := topo(ncomp, cadj, indeg)
	if !okT {
		return nil, false, fmt.Errorf("ineq: internal error: component DAG has a cycle")
	}
	// Upper bounds propagate backwards from fixed components; lower
	// bounds forward. A component's value must lie strictly between its
	// predecessors' and successors' values unless fixed.
	vals := make([]*ast.Value, ncomp)
	upper := make([]*ast.Value, ncomp)
	for i := len(order) - 1; i >= 0; i-- {
		c := order[i]
		var ub *ast.Value
		for _, d := range cadj[c] {
			var dv *ast.Value
			if vals[d] != nil {
				dv = vals[d]
			} else {
				dv = upper[d]
			}
			if dv != nil && (ub == nil || dv.Compare(*ub) < 0) {
				ub = dv
			}
		}
		upper[c] = ub
		if fixed[c] != nil {
			vals[c] = fixed[c]
			upper[c] = fixed[c]
		}
	}
	// Forward pass: assign values. Every component receives a value
	// distinct from all previously assigned ones (fixed constants
	// included), so that <>-pairs between order-incomparable components
	// are satisfied.
	used := map[string]bool{}
	for _, v := range fixed {
		if v != nil {
			used[v.Key()] = true
		}
	}
	lower := make([]*ast.Value, ncomp)
	for _, c := range order {
		if vals[c] == nil {
			lo := lower[c]
			var v ast.Value
			for {
				var e error
				v, e = Between(lo, upper[c])
				if e != nil {
					return nil, false, e
				}
				if !used[v.Key()] {
					break
				}
				// Collision with an incomparable component's value: move
				// strictly upward inside the window and retry. Each retry
				// passes a strictly larger lower bound, and used is
				// finite, so this terminates.
				lv := v
				lo = &lv
			}
			used[v.Key()] = true
			vals[c] = &v
		}
		// Propagate the assigned value as a lower bound to successors
		// (fixed components propagate too).
		for _, d := range cadj[c] {
			if lower[d] == nil || vals[c].Compare(*lower[d]) > 0 {
				lower[d] = vals[c]
			}
		}
	}
	// Defensive final verification: the constructed assignment must make
	// every comparison true.
	m = map[string]ast.Value{}
	for i := 0; i < n; i++ {
		if g.nodes[i].IsVar() {
			m[g.nodes[i].Var] = *vals[comp[g.find(i)]]
		}
	}
	for _, c := range conj {
		lv, rv := termValue(m, c.Left), termValue(m, c.Right)
		if !c.Op.Eval(lv, rv) {
			return nil, false, fmt.Errorf("ineq: internal error: constructed model violates %s", c)
		}
	}
	return m, true, nil
}

func termValue(m map[string]ast.Value, t ast.Term) ast.Value {
	if t.IsVar() {
		return m[t.Var]
	}
	return t.Const
}

// topo returns a topological order of the component DAG.
func topo(n int, adj map[int][]int, indegIn []int) ([]int, bool) {
	indeg := make([]int, n)
	copy(indeg, indegIn)
	var queue []int
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	var order []int
	for len(queue) > 0 {
		// Deterministic: pop the smallest id.
		sort.Ints(queue)
		c := queue[0]
		queue = queue[1:]
		order = append(order, c)
		for _, d := range adj[c] {
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	return order, len(order) == n
}

// Between returns a constant strictly between lo and hi in the global
// order; either bound may be nil for an open end. It fails only when the
// window is empty or the string subdomain cannot supply a value (see the
// package comment on density).
func Between(lo, hi *ast.Value) (ast.Value, error) {
	switch {
	case lo == nil && hi == nil:
		return ast.Int(0), nil
	case lo == nil:
		// Anything below hi: numbers extend downward without bound.
		if hi.Kind == ast.NumberValue {
			below := new(big.Rat).Sub(hi.Num, big.NewRat(1, 1))
			return ast.Value{Kind: ast.NumberValue, Num: below}, nil
		}
		return ast.Int(0), nil // numbers precede all strings
	case hi == nil:
		if lo.Kind == ast.NumberValue {
			above := new(big.Rat).Add(lo.Num, big.NewRat(1, 1))
			return ast.Value{Kind: ast.NumberValue, Num: above}, nil
		}
		return ast.Str(lo.Str + "z"), nil // s < s+"z"
	}
	if lo.Compare(*hi) >= 0 {
		return ast.Value{}, fmt.Errorf("ineq: empty window (%s, %s)", lo, hi)
	}
	if lo.Kind == ast.NumberValue && hi.Kind == ast.NumberValue {
		mid := new(big.Rat).Add(lo.Num, hi.Num)
		mid.Mul(mid, big.NewRat(1, 2))
		return ast.Value{Kind: ast.NumberValue, Num: mid}, nil
	}
	if lo.Kind == ast.NumberValue && hi.Kind == ast.StringValue {
		above := new(big.Rat).Add(lo.Num, big.NewRat(1, 1))
		return ast.Value{Kind: ast.NumberValue, Num: above}, nil
	}
	// Both strings (string < number cannot reach here since numbers
	// precede strings and lo < hi).
	cand := ast.Str(lo.Str + "\x01")
	if cand.Compare(*hi) < 0 {
		return cand, nil
	}
	return ast.Value{}, fmt.Errorf("ineq: no string strictly between %q and %q", lo.Str, hi.Str)
}
