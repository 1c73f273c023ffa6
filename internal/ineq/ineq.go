// Package ineq decides satisfiability and implication for conjunctions of
// arithmetic comparison subgoals (<, <=, =, <>, >=, >) over variables and
// constants, the reasoning engine behind Theorem 5.1 of the paper.
//
// The comparison domain is the dense total order on constants defined by
// ast.Value.Compare: rationals first (numerically), then strings
// (lexicographically). Density is the standard assumption under which
// this procedure is complete; it holds exactly for the rational
// subdomain, and we treat the string subdomain as dense as well (adjacent
// strings — where no third string lies strictly between — do not arise in
// the paper's workloads).
//
// Satisfiability of a conjunction is decided by the classical
// constraint-graph method: equalities are merged with union-find,
// order atoms become edges (strict or non-strict) on the merged nodes,
// distinct constants are ordered among themselves, and the conjunction is
// satisfiable iff no strongly connected component of the <=-graph
// contains a strict edge, no component contains two distinct constants,
// and no <>-pair falls inside one component.
//
// Implication A => (B1 ∨ … ∨ Bm), with each Bi a conjunction, is decided
// by refutation with case-splitting: A ∧ ¬B1 ∧ … ∧ ¬Bm is unsatisfiable
// iff every way of choosing one negated atom from each ¬Bi is
// unsatisfiable together with A. The search prunes any branch whose
// partial conjunction is already unsatisfiable, which is what makes the
// paper's approach fast when queries have few repeated predicates
// (Section 5, "Comparison With Klug's Approach").
package ineq

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/ast"
)

// Satisfiable reports whether the conjunction of comparisons has a model
// over the dense constant order.
func Satisfiable(conj []ast.Comparison) bool {
	g := graphs.Get().(*graph)
	defer g.put()
	return g.build(conj) && g.consistent()
}

// Implies reports whether every model of premise satisfies at least one
// of the disjunct conjunctions. With no disjuncts it reports true only
// when the premise itself is unsatisfiable (an empty disjunction is
// false).
func Implies(premise []ast.Comparison, disjuncts [][]ast.Comparison) bool {
	// A => ∨Bi  iff  A ∧ ∧i(¬Bi) is unsatisfiable.
	clauses := make([][]ast.Comparison, 0, len(disjuncts))
	for _, b := range disjuncts {
		clause := make([]ast.Comparison, len(b))
		for i, c := range b {
			clause[i] = c.Negate()
		}
		clauses = append(clauses, clause)
	}
	// Smaller clauses first: fewer branches near the root.
	sort.SliceStable(clauses, func(i, j int) bool { return len(clauses[i]) < len(clauses[j]) })
	conj := make([]ast.Comparison, len(premise), len(premise)+len(clauses))
	copy(conj, premise)
	return refute(conj, clauses)
}

// Equivalent reports whether two conjunctions have exactly the same
// models.
func Equivalent(a, b []ast.Comparison) bool {
	return Implies(a, [][]ast.Comparison{b}) && Implies(b, [][]ast.Comparison{a})
}

// refute reports whether conj ∧ ∧clauses is unsatisfiable, where each
// clause is a disjunction of comparisons. The search is DPLL-style over
// theory atoms: at each node it filters every clause to its branches
// consistent with the current conjunction — an all-inconsistent clause
// refutes immediately, a single-branch clause is committed without
// branching (unit propagation), and otherwise the clause with the fewest
// consistent branches is split. This keeps the common constraint-checking
// cases (few duplicate predicates, hence few genuinely distinct mappings)
// near-linear, as the paper's complexity discussion anticipates.
func refute(conj []ast.Comparison, clauses [][]ast.Comparison) bool {
	if !Satisfiable(conj) {
		return true
	}
	live := clauses
	for {
		if len(live) == 0 {
			return false
		}
		best := -1
		var bestBranches []ast.Comparison
		next := make([][]ast.Comparison, 0, len(live))
		unit := false
		for _, clause := range live {
			branches := clause[:0:0]
			for _, atom := range clause {
				if Satisfiable(append(conj, atom)) {
					branches = append(branches, atom)
				}
			}
			switch len(branches) {
			case 0:
				return true // clause unsatisfiable under conj
			case 1:
				conj = append(conj, branches[0])
				unit = true
			default:
				next = append(next, branches)
				if best == -1 || len(branches) < len(bestBranches) {
					best = len(next) - 1
					bestBranches = branches
				}
			}
		}
		live = next
		if unit {
			// Unit commitments may have shrunk other clauses; rescan.
			if !Satisfiable(conj) {
				return true
			}
			continue
		}
		if len(live) == 0 {
			return false
		}
		rest := make([][]ast.Comparison, 0, len(live)-1)
		rest = append(rest, live[:best]...)
		rest = append(rest, live[best+1:]...)
		for _, atom := range bestBranches {
			if !refute(append(append([]ast.Comparison{}, conj...), atom), rest) {
				return false
			}
		}
		return true
	}
}

// graph is the constraint graph of one conjunction. Satisfiable builds
// one per call — the refutation search makes thousands — so graphs are
// pooled and rebuilt in the arrays and map they already have.
type graph struct {
	nodes  []ast.Term      // representative term per node id
	ids    map[termKey]int // term -> node id
	parent []int           // union-find over node ids
	lt     [][2]int        // strict edges u < v
	le     [][2]int        // non-strict edges u <= v
	ne     [][2]int        // disequalities
	consts []int           // node ids that are constants
	bad    bool            // immediate contradiction found
	scc    sccRoom         // consistent's
}

var graphs = sync.Pool{New: func() any { return &graph{ids: map[termKey]int{}} }}

// put empties g and pools it.
func (g *graph) put() {
	clear(g.nodes)
	clear(g.ids)
	g.nodes, g.parent, g.consts = g.nodes[:0], g.parent[:0], g.consts[:0]
	g.lt, g.le, g.ne, g.bad = g.lt[:0], g.le[:0], g.ne[:0], false
	graphs.Put(g)
}

// termKey identifies a term without rendering it: a variable by its
// name, a symbol by its text, an integer that fits an int64 by its value,
// and only any other number by its canonical text.
type termKey struct {
	kind byte // 'V' variable, '$' symbol, '#' int64, '/' other number
	s    string
	n    int64
}

func keyOf(t ast.Term) termKey {
	switch {
	case t.IsVar():
		return termKey{kind: 'V', s: t.Var}
	case t.Const.Kind == ast.StringValue:
		return termKey{kind: '$', s: t.Const.Str}
	case t.Const.Num.IsInt() && t.Const.Num.Num().IsInt64():
		return termKey{kind: '#', n: t.Const.Num.Num().Int64()}
	}
	return termKey{kind: '/', s: t.Const.Num.RatString()}
}

// build makes g, empty, the graph of conj; it reports false when an
// immediate contradiction (two distinct constants equated) is found.
func (g *graph) build(conj []ast.Comparison) bool {
	for _, c := range conj {
		l, r := g.node(c.Left), g.node(c.Right)
		switch c.Op {
		case ast.Eq:
			g.union(l, r)
		case ast.Lt:
			g.lt = append(g.lt, [2]int{l, r})
		case ast.Le:
			g.le = append(g.le, [2]int{l, r})
		case ast.Gt:
			g.lt = append(g.lt, [2]int{r, l})
		case ast.Ge:
			g.le = append(g.le, [2]int{r, l})
		case ast.Ne:
			g.ne = append(g.ne, [2]int{l, r})
		}
	}
	// Order the constants among themselves: adjacent strict edges suffice
	// by transitivity.
	slices.SortFunc(g.consts, func(a, b int) int { return g.nodes[a].Const.Compare(g.nodes[b].Const) })
	for i := 1; i < len(g.consts); i++ {
		g.lt = append(g.lt, [2]int{g.consts[i-1], g.consts[i]})
	}
	// Merging two distinct constants is already a contradiction.
	return !g.bad
}

func (g *graph) node(t ast.Term) int {
	k := keyOf(t)
	if id, ok := g.ids[k]; ok {
		return id
	}
	id := len(g.nodes)
	g.nodes = append(g.nodes, t)
	g.ids[k] = id
	g.parent = append(g.parent, id)
	if t.IsConst() {
		g.consts = append(g.consts, id)
	}
	return id
}

func (g *graph) find(x int) int {
	for g.parent[x] != x {
		g.parent[x] = g.parent[g.parent[x]]
		x = g.parent[x]
	}
	return x
}

func (g *graph) union(x, y int) {
	rx, ry := g.find(x), g.find(y)
	if rx == ry {
		return
	}
	// Keep a constant as the representative when present, and reject
	// merging two distinct constants.
	cx, cy := g.nodes[rx].IsConst(), g.nodes[ry].IsConst()
	switch {
	case cx && cy:
		if !g.nodes[rx].Const.Equal(g.nodes[ry].Const) {
			g.bad = true
		}
		g.parent[ry] = rx
	case cy:
		g.parent[rx] = ry
	default:
		g.parent[ry] = rx
	}
}

// consistent runs the SCC check described in the package comment.
func (g *graph) consistent() bool {
	n := len(g.nodes)
	r := &g.scc
	r.adj = slices.Grow(r.adj[:0], n)[:n]
	for i := range r.adj {
		r.adj[i] = r.adj[i][:0]
	}
	r.edges = r.edges[:0]
	addEdge := func(u, v int, strict bool) {
		u, v = g.find(u), g.find(v)
		if u == v {
			if strict {
				g.bad = true
			}
			return
		}
		r.adj[u] = append(r.adj[u], v)
		r.edges = append(r.edges, edge{u, v, strict})
	}
	for _, e := range g.lt {
		addEdge(e[0], e[1], true)
	}
	for _, e := range g.le {
		addEdge(e[0], e[1], false)
	}
	if g.bad {
		return false
	}
	comp := r.sccs(n)
	for _, e := range r.edges {
		if e.strict && comp[e.u] == comp[e.v] {
			return false
		}
	}
	// Two distinct constants in one component would have a strict edge
	// between them (directly or via the adjacent chain), so they are
	// already rejected above. Check the explicit disequalities.
	for _, p := range g.ne {
		u, v := g.find(p[0]), g.find(p[1])
		if u == v || comp[u] == comp[v] {
			return false
		}
	}
	return true
}

type edge struct {
	u, v   int
	strict bool
}

// sccRoom is what consistent works in: the <=-graph's adjacency lists and
// edges, and the arrays of the component search.
type sccRoom struct {
	adj                     [][]int
	edges                   []edge
	index, low, comp, stack []int
	onStack                 []bool
	calls                   []frame
}

type frame struct {
	v  int
	ei int
}

// sccs computes the strongly connected components of the n nodes of
// r.adj (iterative Tarjan) and returns a component id per node.
func (r *sccRoom) sccs(n int) []int {
	const unvisited = -1
	adj := r.adj
	index := slices.Grow(r.index[:0], n)[:n]
	low := slices.Grow(r.low[:0], n)[:n]
	comp := slices.Grow(r.comp[:0], n)[:n]
	onStack := slices.Grow(r.onStack[:0], n)[:n]
	r.index, r.low, r.comp, r.onStack = index, low, comp, onStack
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
		onStack[i] = false
	}
	stack := r.stack[:0]
	next := 0
	ncomp := 0

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		callStack := append(r.calls[:0], frame{v: root})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(callStack) > 0 {
			f := &callStack[len(callStack)-1]
			if f.ei < len(adj[f.v]) {
				w := adj[f.v][f.ei]
				f.ei++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
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
		r.calls = callStack
	}
	r.stack = stack
	return comp
}
