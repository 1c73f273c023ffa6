package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/residual"
	"repro/internal/store"
)

// naiveEval is a brute-force oracle: ground every rule over the active
// domain and iterate to fixpoint, stratum by stratum. Exponential in the
// number of variables — usable only on tiny instances, which is exactly
// what an oracle is for.
func naiveEval(t *testing.T, prog *ast.Program, db *store.Store) map[string]map[string]relation.Tuple {
	t.Helper()
	strata, err := Stratify(prog)
	if err != nil {
		t.Fatal(err)
	}
	// Active domain: constants in the database and the program.
	var adom []ast.Value
	seen := map[string]bool{}
	addV := func(v ast.Value) {
		if !seen[v.Key()] {
			seen[v.Key()] = true
			adom = append(adom, v)
		}
	}
	for _, name := range db.Names() {
		for _, tu := range db.Tuples(name) {
			for _, v := range tu {
				addV(v)
			}
		}
	}
	for _, r := range prog.Rules {
		for _, l := range r.Body {
			if l.IsComp() {
				for _, tm := range []ast.Term{l.Comp.Left, l.Comp.Right} {
					if tm.IsConst() {
						addV(tm.Const)
					}
				}
				continue
			}
			for _, tm := range l.Atom.Args {
				if tm.IsConst() {
					addV(tm.Const)
				}
			}
		}
		for _, tm := range r.Head.Args {
			if tm.IsConst() {
				addV(tm.Const)
			}
		}
	}
	facts := map[string]map[string]relation.Tuple{}
	holds := func(pred string, tu relation.Tuple) bool {
		if m, ok := facts[pred]; ok {
			if _, ok := m[tu.Key()]; ok {
				return true
			}
		}
		return db.Contains(pred, tu)
	}
	add := func(pred string, tu relation.Tuple) bool {
		if holds(pred, tu) {
			return false
		}
		if facts[pred] == nil {
			facts[pred] = map[string]relation.Tuple{}
		}
		facts[pred][tu.Key()] = tu
		return true
	}
	ground := func(a ast.Atom, env map[string]ast.Value) relation.Tuple {
		tu := make(relation.Tuple, len(a.Args))
		for i, tm := range a.Args {
			if tm.IsVar() {
				tu[i] = env[tm.Var]
			} else {
				tu[i] = tm.Const
			}
		}
		return tu
	}
	for _, layer := range strata {
		inLayer := map[string]bool{}
		for _, p := range layer {
			inLayer[p] = true
		}
		for changed := true; changed; {
			changed = false
			for _, r := range prog.Rules {
				if !inLayer[r.Head.Pred] {
					continue
				}
				vars := r.Vars()
				env := map[string]ast.Value{}
				var rec func(i int)
				rec = func(i int) {
					if i == len(vars) {
						for _, l := range r.Body {
							switch {
							case l.IsComp():
								g := l.Comp.Apply(substOf(env))
								v, ok := g.Ground()
								if !ok || !v {
									return
								}
							case l.IsNeg():
								if holds(l.Atom.Pred, ground(l.Atom, env)) {
									return
								}
							default:
								if !holds(l.Atom.Pred, ground(l.Atom, env)) {
									return
								}
							}
						}
						if add(r.Head.Pred, ground(r.Head, env)) {
							changed = true
						}
						return
					}
					for _, v := range adom {
						env[vars[i]] = v
						rec(i + 1)
					}
				}
				rec(0)
			}
		}
	}
	return facts
}

func substOf(env map[string]ast.Value) ast.Subst {
	s := ast.Subst{}
	for v, val := range env {
		s[v] = ast.C(val)
	}
	return s
}

// oraclePrograms is the pool of program shapes the evaluator's oracle
// tests run over.
var oraclePrograms = []string{
	"p(X) :- e(X) & f(X).",
	"p(X) :- e(X).\np(X) :- f(X).",
	"p(X,Y) :- e(X,Y) & X < Y.",
	"p(X) :- e(X) & not f(X).",
	"reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- reach(X,Z) & edge(Z,Y).",
	"odd(Y) :- even(X) & succ(X,Y).\neven(Y) :- odd(X) & succ(X,Y).\neven(X) :- zero(X).",
	"q(X) :- e(X) & not p(X).\np(X) :- f(X) & g(X).",
	"p(X) :- edge(1,X) & edge(X,Y) & f(Y).",
	"p(X) :- edge(X,X) & e(X).",
	// The constraint shapes core's TestCheckerAgainstOracles streams
	// updates through, with full evaluation as its reference: linear and
	// non-linear recursion, helpers, negation on stored relations and
	// lower strata, mixed polarity.
	"reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- reach(X,Z) & edge(Z,Y).\npanic :- reach(X,X).",
	"t(X,Y) :- edge(X,Y) & X < Y.\nt(X,Y) :- t(X,Z) & t(Z,Y).\npanic :- t(X,Y) & f(X) & g(Y).",
	"hub(X) :- edge(X,Y) & edge(X,Z) & Y < Z.\npanic :- hub(X) & g(X).",
	"r(X,Y) :- edge(X,Y) & not g(X).\nr(X,Y) :- r(X,Z) & edge(Z,Y).\npanic :- r(X,Y) & f(Y) & not h(X).",
	"a(X) :- edge(X,Y).\nm(X) :- g(X).\nb(X) :- a(X) & not m(X).\npanic :- b(X) & f(X) & h(X).",
	"linked(X) :- edge(X,Y).\nlone(X) :- f(X) & not linked(X).\npanic :- lone(X) & edge(Y,X) & g(Y).",
	"panic :- edge(X,X) & f(X).",
}

var oracleArity = map[string]int{"e": 1, "f": 1, "g": 1, "h": 1, "edge": 2, "succ": 2, "zero": 1}

// TestEvalAgainstNaiveOracle cross-checks the semi-naive evaluator
// against brute-force grounding on randomized tiny databases across a
// spread of program shapes.
func TestEvalAgainstNaiveOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	// One plan cache shared by every program and trial: compiled plans
	// must never leak results across the (program, store) combinations the
	// key distinguishes.
	cache := NewPlanCache()
	for pi, src := range oraclePrograms {
		prog := parser.MustParseProgram(src)
		// Binary e for the comparison program.
		local := map[string]int{}
		for _, rel := range prog.EDBPreds() {
			a := oracleArity[rel]
			if rel == "e" && pi == 2 {
				a = 2
			}
			local[rel] = a
		}
		for trial := 0; trial < 40; trial++ {
			db := store.New()
			for rel, ar := range local {
				for i := 0; i < rng.Intn(4); i++ {
					tu := make(relation.Tuple, ar)
					for j := range tu {
						tu[j] = ast.Int(int64(rng.Intn(3)))
					}
					if _, err := db.Insert(rel, tu); err != nil {
						t.Fatal(err)
					}
				}
			}
			// All three arms — indexed probes with bound-first planning,
			// the plain scan path, and the indexed path through the shared
			// plan cache — must agree with the oracle exactly, and
			// indexing must never read more store tuples than the scans it
			// replaces. Each arm gets its own clone so the read counters
			// are per-arm.
			dbIdx, dbScan, dbCached := db.Clone(), db.Clone(), db.Clone()
			resIdx, err := EvalWith(prog, dbIdx, Options{})
			if err != nil {
				t.Fatalf("program %d trial %d (indexed): %v", pi, trial, err)
			}
			resScan, err := EvalWith(prog, dbScan, Options{DisableIndexes: true})
			if err != nil {
				t.Fatalf("program %d trial %d (scan): %v", pi, trial, err)
			}
			resCached, err := EvalWith(prog, dbCached, Options{Cache: cache})
			if err != nil {
				t.Fatalf("program %d trial %d (cached): %v", pi, trial, err)
			}
			// A second evaluation on the same store hits the cached plan
			// and must reproduce the first answer.
			resCached2, err := EvalWith(prog, dbCached, Options{Cache: cache})
			if err != nil {
				t.Fatalf("program %d trial %d (cached, reuse): %v", pi, trial, err)
			}
			want := naiveEval(t, prog, db)
			if prog.IDBPreds()[ast.PanicPred] {
				// The checker's question, with goal pruning and the early stop.
				holds, err := PanicHolds(prog, db.Clone())
				if _, naive := want[ast.PanicPred]; err != nil || holds != naive {
					t.Fatalf("program %d trial %d: PanicHolds=%v err=%v, oracle %v\nprog:\n%s\ndb:\n%s", pi, trial, holds, err, naive, prog, db)
				}
			}
			for _, arm := range []struct {
				name string
				res  *Result
			}{{"indexed", resIdx}, {"scan", resScan}, {"cached", resCached}, {"cached-reuse", resCached2}} {
				for pred := range prog.IDBPreds() {
					got := arm.res.Tuples(pred)
					wantSet := want[pred]
					if len(got) != len(wantSet) {
						t.Fatalf("program %d trial %d (%s): %s has %d tuples, oracle %d\nprog:\n%s\ndb:\n%s",
							pi, trial, arm.name, pred, len(got), len(wantSet), prog, db)
					}
					for _, tu := range got {
						if _, ok := wantSet[tu.Key()]; !ok {
							t.Fatalf("program %d trial %d (%s): %s derived %v not in oracle", pi, trial, arm.name, pred, tu)
						}
					}
				}
			}
			if ri, rs := dbIdx.TotalReads(), dbScan.TotalReads(); ri > rs {
				t.Fatalf("program %d trial %d: indexed eval read %d store tuples, scan read %d\nprog:\n%s\ndb:\n%s",
					pi, trial, ri, rs, prog, db)
			}
		}
	}
	// Every trial re-evaluated once on an unchanged store, so the shared
	// cache must have served at least one hit per trial.
	if hits, misses, entries := cache.Stats(); hits == 0 || misses == 0 || entries == 0 {
		t.Fatalf("shared plan cache unused: hits=%d misses=%d entries=%d", hits, misses, entries)
	}
}

// TestResidualAgainstOracle cross-checks residual compilation against
// the full evaluator AND the brute-force oracle: for every randomized
// (constraint, database, update) with a constraint-satisfying pre-state,
// the compiled residual's verdict, the rendered residual program, the
// full constraint on the post-update store, and naive grounding must all
// agree. The constraint pool covers constant arguments (pinned
// positions), repeated variables (unification guards), negation, and
// comparisons; the update pool covers inserts and deletes.
func TestResidualAgainstOracle(t *testing.T) {
	constraints := []string{
		"panic :- e(X) & f(X).",
		"panic :- e(X) & not f(X).",
		"panic :- edge(X,X).",
		"panic :- edge(X,Y) & edge(Y,X) & X < Y.",
		"panic :- edge(1,X) & f(X).",
		"panic :- e(X) & X > 1.",
		"panic :- edge(X,Y) & f(Z) & X <= Z & Z <= Y.",
		"panic :- edge(X,2) & not e(X).",
	}
	arity := map[string]int{"e": 1, "f": 1, "edge": 2}
	rng := rand.New(rand.NewSource(9))
	rcache := residual.NewCache()
	checked := 0
	for pi, src := range constraints {
		prog := parser.MustParseProgram(src)
		rels := prog.EDBPreds()
		for trial := 0; trial < 120; trial++ {
			db := store.New()
			for _, rel := range rels {
				db.MustEnsure(rel, arity[rel])
				for i := 0; i < rng.Intn(4); i++ {
					tu := make(relation.Tuple, arity[rel])
					for j := range tu {
						tu[j] = ast.Int(int64(rng.Intn(3)))
					}
					if _, err := db.Insert(rel, tu); err != nil {
						t.Fatal(err)
					}
				}
			}
			// The residual argument assumes the constraint holds before the
			// update; drop pre-violating states.
			if pre, err := PanicHolds(prog, db.Clone()); err != nil || pre {
				if err != nil {
					t.Fatal(err)
				}
				continue
			}
			rel := rels[rng.Intn(len(rels))]
			tu := make(relation.Tuple, arity[rel])
			for j := range tu {
				tu[j] = ast.Int(int64(rng.Intn(3)))
			}
			u := store.Ins(rel, tu)
			if rng.Intn(3) == 0 {
				u = store.Del(rel, tu)
			}
			res, _, ok := rcache.For(prog, u, db, residual.Options{})
			if !ok {
				t.Fatalf("constraint %d not residual-eligible", pi)
			}
			// Each trial has its own store (the cache keys on store
			// identity), so the hit path is exercised by a repeat lookup.
			if again, hit, _ := rcache.For(prog, u, db, residual.Options{}); !hit || again != res {
				t.Fatalf("constraint %d trial %d: repeat lookup missed the pattern cache", pi, trial)
			}
			post := db.Clone()
			if err := u.Apply(post); err != nil {
				t.Fatal(err)
			}
			full, err := PanicHolds(prog, post.Clone())
			if err != nil {
				t.Fatal(err)
			}
			rendered, err := PanicHolds(res.Program(u.Tuple), post.Clone())
			if err != nil {
				t.Fatalf("constraint %d trial %d: rendered residual: %v\n%s", pi, trial, err, res.Program(u.Tuple))
			}
			naive := naiveEval(t, prog, post)
			_, oracle := naive[ast.PanicPred]
			got := res.Decide(post, u.Tuple)
			if got != full || got != oracle || rendered != full {
				t.Fatalf("constraint %d trial %d (%v): residual=%v rendered=%v eval=%v oracle=%v\nprog:\n%s\ndb:\n%s",
					pi, trial, u, got, rendered, full, oracle, prog, db)
			}
			checked++
		}
	}
	if checked < 200 {
		t.Fatalf("only %d trials survived the pre-state filter", checked)
	}
	// The shared residual cache must have served repeats of the bounded
	// pattern space from memory.
	if hits, _, compiled, _ := rcache.Stats(); hits == 0 || compiled == 0 {
		t.Fatalf("residual cache unused: hits=%d compiled=%d", hits, compiled)
	}
}

// preStateRouter is a ProbeRouter that claims every relation and serves
// it from a store of its own — the shards' role: they hold the state
// before the update being decided, whatever the evaluator's local store
// holds.
type preStateRouter struct {
	db    *store.Store
	reads int
}

func (r *preStateRouter) Probe(dst []relation.Tuple, rel string, cols []int, vals []ast.Value) ([]relation.Tuple, bool, error) {
	r.reads++
	if len(cols) == 0 {
		return r.db.TuplesAppend(dst, rel), true, nil
	}
	return r.db.LookupColsAppend(dst, rel, cols, vals), true, nil
}

func (r *preStateRouter) Contains(rel string, t relation.Tuple) (bool, bool, error) {
	r.reads++
	return r.db.Contains(rel, t), true, nil
}

// TestGoalHoldsAfterAgainstClone holds the pending-update entry point to
// its definition — clone the store, apply the update, evaluate — over the
// oracle program pool, for inserts and deletes (duplicates, absent tuples
// and relations the store lacks included), on the indexed, scan and
// cached arms, and with a router that serves the pre-state while the
// local store is empty: the update is applied above what the router
// answers. The store asked about is never written.
func TestGoalHoldsAfterAgainstClone(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	cache := NewPlanCache()
	moved, routed := 0, 0
	for pi, src := range oraclePrograms {
		prog := parser.MustParseProgram(src)
		goal := prog.Rules[len(prog.Rules)-1].Head.Pred
		rels := prog.EDBPreds()
		arity := func(rel string) int {
			if rel == "e" && pi == 2 {
				return 2 // binary e for the comparison program
			}
			return oracleArity[rel]
		}
		tuple := func(rel string) relation.Tuple {
			tu := make(relation.Tuple, arity(rel))
			for j := range tu {
				tu[j] = ast.Int(int64(rng.Intn(3)))
			}
			return tu
		}
		for trial := 0; trial < 60; trial++ {
			db := store.New()
			for _, rel := range rels {
				for i := rng.Intn(4); i > 0; i-- {
					if _, err := db.Insert(rel, tuple(rel)); err != nil {
						t.Fatal(err)
					}
				}
			}
			rel := rels[rng.Intn(len(rels))]
			u := store.Ins(rel, tuple(rel))
			if rng.Intn(3) == 0 {
				u = store.Del(rel, tuple(rel))
			}
			post := db.Clone()
			if err := u.Apply(post); err != nil {
				t.Fatal(err)
			}
			res, err := Eval(prog, post)
			if err != nil {
				t.Fatal(err)
			}
			want := len(res.Tuples(goal)) > 0
			if before, err := GoalHolds(prog, db.Clone(), goal); err != nil {
				t.Fatal(err)
			} else if before != want {
				moved++
			}
			state := func() string { return fmt.Sprint(db.SchemaVersion(), db.DataVersion(rel), "\n", db.Dump()) }
			before := state()
			router := &preStateRouter{db: db}
			for _, arm := range []struct {
				name  string
				local *store.Store
				opts  Options
			}{
				{"indexed", db, Options{}},
				{"scan", db, Options{DisableIndexes: true}},
				{"cached", db, Options{Cache: cache}},
				{"routed", store.New(), Options{Probe: router}},
				{"routed scan", store.New(), Options{Probe: router, DisableIndexes: true}},
			} {
				got, err := GoalHoldsAfter(prog, arm.local, goal, u, arm.opts)
				if err != nil || got != want {
					t.Fatalf("program %d trial %d (%s): %s after %v = %v err=%v, evaluation of the updated clone says %v\nprog:\n%s\ndb:\n%s",
						pi, trial, arm.name, goal, u, got, err, want, prog, db)
				}
			}
			routed += router.reads
			if state() != before {
				t.Fatalf("program %d trial %d: asking about %v wrote the store", pi, trial, u)
			}
		}
	}
	// The pool must have reached what the test is for: updates that change
	// the answer, and evaluations the router served.
	if moved < 50 || routed == 0 {
		t.Fatalf("thin run: %d updates moved the goal, %d routed reads", moved, routed)
	}
}
