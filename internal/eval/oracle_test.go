package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval/naive"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
)

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
	// A helper rule guarded by order comparisons: its join takes a range
	// step over r.
	"cov(X) :- l(X,Y) & r(Z) & X <= Z & Z <= Y.\npanic :- cov(X) & not f(X).",
	// Order comparisons between registers bound from derived rows and
	// from stored rows, in recursion and by range steps: over orderDomain
	// a comparison decided on handles gets them backwards.
	"up(X,Y) :- edge(X,Y) & X < Y.\nup(X,Z) :- up(X,Y) & edge(Y,Z) & X < Z.\npanic :- up(X,Y) & f(L) & X <= L & L < Y.",
	"low(X) :- e(X) & f(Y) & X <= Y.\nhigh(X) :- low(X) & g(Z) & Z < X.\npanic :- high(X) & low(Y) & Y < X.",
	// Nonrecursive helpers and the flat programs the residual compiler
	// unfolds them into (residual.Flatten): a self-joining helper; a
	// negated copy rule; negated facts, whose expansion is a comparison;
	// and a negated helper the expansion refuses.
	"panic :- edge(X,Y) & edge(X,Z) & Y < Z & g(X).",
	"m(X) :- g(X).\npanic :- edge(X,Y) & f(Y) & not m(X).",
	"panic :- edge(X,Y) & f(Y) & not g(X).",
	"ok(0).\nok(1).\npanic :- edge(X,Y) & h(Y) & not ok(X).",
	"panic :- edge(X,Y) & h(Y) & X <> 0 & X <> 1.",
	"out(X) :- edge(X,Y) & h(Y).\npanic :- f(X) & g(X) & not out(X).",
}

// orderDomain is a value domain in ascending value order — rationals,
// an integer, strings — that the intern pool is first shown in
// descending order, so its handles run against its values.
var orderDomain = func() []ast.Value {
	dom := []ast.Value{ast.Rat(1, 30011), ast.Rat(30011, 7), ast.Int(30013), ast.Str("ord-a"), ast.Str("ord-b")}
	for i := len(dom) - 1; i >= 0; i-- {
		relation.Intern(dom[i])
	}
	return dom
}()

// oracleDomain is the values trial draws tuples from: {0, 1, 2} on even
// trials, three neighbours of orderDomain on odd ones.
func oracleDomain(trial int) []ast.Value {
	if trial%2 == 0 {
		return []ast.Value{ast.Int(0), ast.Int(1), ast.Int(2)}
	}
	off := trial / 2 % 3
	return orderDomain[off : off+3]
}

var oracleArity = map[string]int{"e": 1, "f": 1, "g": 1, "h": 1, "edge": 2, "succ": 2, "zero": 1, "l": 2, "r": 1}

// oracleArityOf is the arity of rel in program pi of the pool: e is
// binary in the comparison program.
func oracleArityOf(pi int, rel string) int {
	if rel == "e" && pi == 2 {
		return 2
	}
	return oracleArity[rel]
}

// agreesWithNaive holds three evaluation arms of prog over db to
// brute-force grounding: indexed probes and range steps with bound-first
// planning, the plain scan path, and the indexed path through the shared
// plan cache — twice, so the second hits the cached plan. Every derived
// relation must equal the oracle's, PanicHolds must agree where the
// program derives panic, and indexing must never read more store tuples
// than the scans it replaces. Each arm gets its own clone so the read
// counters are per-arm.
func agreesWithNaive(t testing.TB, what string, prog *ast.Program, db *store.Store, cache *PlanCache) {
	t.Helper()
	dbIdx, dbScan, dbCached := db.Clone(), db.Clone(), db.Clone()
	arms := []struct {
		name string
		db   *store.Store
		opts Options
	}{{"indexed", dbIdx, Options{}}, {"scan", dbScan, Options{DisableIndexes: true}},
		{"cached", dbCached, Options{Cache: cache}}, {"cached-reuse", dbCached, Options{Cache: cache}}}
	want, err := naive.Eval(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	if prog.IDBPreds()[ast.PanicPred] {
		// The checker's question, with goal pruning and the early stop.
		holds, err := PanicHolds(prog, db.Clone())
		if _, derived := want[ast.PanicPred]; err != nil || holds != derived {
			t.Fatalf("%s: PanicHolds=%v err=%v, oracle %v\nprog:\n%s\ndb:\n%s", what, holds, err, derived, prog, db)
		}
	}
	for _, arm := range arms {
		res, err := EvalWith(prog, arm.db, arm.opts)
		if err != nil {
			t.Fatalf("%s (%s): %v", what, arm.name, err)
		}
		for pred := range prog.IDBPreds() {
			got := res.Tuples(pred)
			wantSet := want[pred]
			if len(got) != len(wantSet) {
				t.Fatalf("%s (%s): %s has %d tuples, oracle %d\nprog:\n%s\ndb:\n%s",
					what, arm.name, pred, len(got), len(wantSet), prog, db)
			}
			for _, tu := range got {
				if _, ok := wantSet[tu.Key()]; !ok {
					t.Fatalf("%s (%s): %s derived %v not in oracle", what, arm.name, pred, tu)
				}
			}
		}
	}
	if ri, rs := dbIdx.TotalReads(), dbScan.TotalReads(); ri > rs {
		t.Fatalf("%s: indexed eval read %d store tuples, scan read %d\nprog:\n%s\ndb:\n%s", what, ri, rs, prog, db)
	}
}

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
		local := map[string]int{}
		for _, rel := range prog.EDBPreds() {
			local[rel] = oracleArityOf(pi, rel)
		}
		for trial := 0; trial < 40; trial++ {
			db, dom := store.New(), oracleDomain(trial)
			for rel, ar := range local {
				for i := 0; i < rng.Intn(4); i++ {
					tu := make(relation.Tuple, ar)
					for j := range tu {
						tu[j] = dom[rng.Intn(3)]
					}
					if _, err := db.Insert(rel, tu); err != nil {
						t.Fatal(err)
					}
				}
			}
			agreesWithNaive(t, fmt.Sprintf("program %d trial %d", pi, trial), prog, db, cache)
		}
	}
	// Every trial re-evaluated once on an unchanged store, so the shared
	// cache must have served at least one hit per trial.
	if hits, misses, entries := cache.Stats(); hits == 0 || misses == 0 || entries == 0 {
		t.Fatalf("shared plan cache unused: hits=%d misses=%d entries=%d", hits, misses, entries)
	}
}

// fuzzCache is the plan cache every FuzzEvalAgainstNaive input shares.
var fuzzCache = NewPlanCache()

// FuzzEvalAgainstNaive is TestEvalAgainstNaiveOracle with the store
// chosen by bytes: byte 0 picks a program of the pool, and each following
// pair inserts into one of its stored relations the tuple a byte spells
// in base 3 over {0, 1, 2} — or, under byte 0's high bit, over three
// neighbours of orderDomain (which ones, bit 6 says), so comparisons and
// ranges cross from numbers to strings over handles interned against the
// values' order.
func FuzzEvalAgainstNaive(f *testing.F) {
	for pi := range oraclePrograms {
		for _, pairs := range [][]byte{{}, {0, 1, 0, 5, 1, 4, 2, 8}, {0, 0, 0, 4, 0, 8, 1, 0, 1, 4, 2, 2}, {1, 1, 0, 3, 2, 7, 0, 5, 1, 6}} {
			f.Add(append([]byte{byte(pi)}, pairs...))
			f.Add(append([]byte{0x80 | byte(pi)}, pairs...))
			f.Add(append([]byte{0xc0 | byte(pi)}, pairs...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		pi := int(data[0]&0x7f) % len(oraclePrograms)
		prog := parser.MustParseProgram(oraclePrograms[pi])
		rels := prog.EDBPreds()
		db, dom := store.New(), oracleDomain(0)
		if data[0]&0x80 != 0 {
			off := int(data[0]>>6&1) * 2
			dom = orderDomain[off : off+3]
		}
		for i := 1; i+1 < len(data) && i < 25; i += 2 {
			rel := rels[int(data[i])%len(rels)]
			tu := make(relation.Tuple, oracleArityOf(pi, rel))
			for j, v := 0, data[i+1]; j < len(tu); j, v = j+1, v/3 {
				tu[j] = dom[v%3]
			}
			if _, err := db.Insert(rel, tu); err != nil {
				t.Fatal(err)
			}
		}
		agreesWithNaive(t, fmt.Sprintf("program %d", pi), prog, db, fuzzCache)
	})
}

// planOf returns the from-scratch plan of rule r.
func planOf(c *compiled, r *ast.Rule) *Plan {
	for _, sp := range c.strata {
		for _, rp := range sp.rules {
			if rp.rule == r {
				return rp.plan
			}
		}
	}
	return nil
}

// TestRangeStepsInRuleBodies: a helper rule guarded by order comparisons
// joins r by a range step — its candidates come from RangeAppend over an
// ordered index of r, not from a scan — agrees with grounding on every
// arm, and the indexed arm reads of r only the points some interval of l
// covers.
func TestRangeStepsInRuleBodies(t *testing.T) {
	prog := parser.MustParseProgram("cov(X) :- l(X,Y) & r(Z) & X <= Z & Z <= Y.\npanic :- cov(X) & not f(X).")
	db := store.New()
	covered := 0
	for i := int64(0); i < 8; i++ {
		if _, err := db.Insert("l", relation.Ints(3*i, 3*i+i%3)); err != nil {
			t.Fatal(err)
		}
		covered += int(i%3) + 1 // the points 3i … 3i+i%3
	}
	for z := int64(0); z < 24; z++ {
		if _, err := db.Insert("r", relation.Ints(z)); err != nil {
			t.Fatal(err)
		}
	}
	c, err := compile(prog, db, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := planOf(c, prog.RulesFor("cov")[0]).Ranges(); got != "r{0:[R$0,R$1]}" {
		t.Fatalf("cov's plan ranges %q, want r{0:[R$0,R$1]}", got)
	}
	agreesWithNaive(t, "cov", prog, db, NewPlanCache())
	// The indexed arm makes one ordered-index probe per l tuple; the scan
	// arm none.
	for _, arm := range []struct {
		opts          Options
		reads, probes int64
	}{{Options{}, int64(covered), 8}, {Options{DisableIndexes: true}, 8 * 24, 0}} {
		run := db.Clone()
		probes := relation.IndexProbes()
		if _, err := EvalWith(prog, run, arm.opts); err != nil {
			t.Fatal(err)
		}
		if got := run.Reads("r"); got != arm.reads {
			t.Errorf("%+v: read %d tuples of r, want %d", arm.opts, got, arm.reads)
		}
		if n := relation.IndexProbes() - probes; n != arm.probes {
			t.Errorf("%+v: %d index probes, want %d", arm.opts, n, arm.probes)
		}
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
		return append(dst, r.db.Tuples(rel)...), true, nil
	}
	return append(dst, r.db.LookupCols(rel, cols, vals)...), true, nil
}

func (r *preStateRouter) Contains(rel string, t relation.Tuple) (bool, bool, error) {
	r.reads++
	return r.db.Contains(rel, t), true, nil
}

// TestGoalHoldsAfterAgainstClone holds the pending-update entry point to
// its definition — clone the store, apply the updates, evaluate — over the
// oracle program pool, for inserts and deletes (duplicates, absent tuples
// and relations the store lacks included) after up to two earlier updates
// of a sequence, on the indexed, scan and
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
		tuple := func(rel string) relation.Tuple {
			tu := make(relation.Tuple, oracleArityOf(pi, rel))
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
			update := func() store.Update {
				rel := rels[rng.Intn(len(rels))]
				if rng.Intn(3) == 0 {
					return store.Del(rel, tuple(rel))
				}
				return store.Ins(rel, tuple(rel))
			}
			// Up to two earlier updates of a sequence, pending before u.
			prior := make([]store.Update, rng.Intn(3))
			for i := range prior {
				prior[i] = update()
			}
			u := update()
			rel := u.Relation
			post := db.Clone()
			for _, w := range append(prior[:len(prior):len(prior)], u) {
				if err := w.Apply(post); err != nil {
					t.Fatal(err)
				}
			}
			res, err := Eval(prog, post)
			if err != nil {
				t.Fatal(err)
			}
			want := len(res.Tuples(goal)) > 0
			if before, err := GoalHoldsWith(prog, db.Clone(), goal, Options{}); err != nil {
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
				got, err := GoalHoldsAfter(prog, arm.local, goal, prior, u, arm.opts)
				if err != nil || got != want {
					t.Fatalf("program %d trial %d (%s): %s after %v then %v = %v err=%v, evaluation of the updated clone says %v\nprog:\n%s\ndb:\n%s",
						pi, trial, arm.name, goal, prior, u, got, err, want, prog, db)
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
