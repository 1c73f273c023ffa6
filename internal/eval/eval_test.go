package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
)

func mkdb(t *testing.T, facts string) *store.Store {
	t.Helper()
	db := store.New()
	if facts != "" {
		if err := db.LoadFacts(parser.MustParseProgram(facts)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestStratifyBasic(t *testing.T) {
	prog := parser.MustParseProgram(`
		p(X) :- e(X).
		q(X) :- p(X) & not r(X).
		r(X) :- f(X).
		panic :- q(X).`)
	strata, err := Stratify(prog)
	if err != nil {
		t.Fatal(err)
	}
	level := map[string]int{}
	for i, layer := range strata {
		for _, p := range layer {
			level[p] = i
		}
	}
	if level["r"] >= level["q"] {
		t.Errorf("r (level %d) must be below q (level %d)", level["r"], level["q"])
	}
	if level["q"] > level["panic"] {
		t.Errorf("panic (level %d) must not be below q (level %d)", level["panic"], level["q"])
	}
}

func TestStratifyRejectsNegationInCycle(t *testing.T) {
	prog := parser.MustParseProgram(`
		win(X) :- move(X,Y) & not win(Y).`)
	if _, err := Stratify(prog); err == nil {
		t.Error("negation through recursion accepted")
	}
}

func TestEvalConjunctive(t *testing.T) {
	// Example 2.1: no employee in both sales and accounting.
	prog := parser.MustParseProgram("panic :- emp(E,sales) & emp(E,accounting).")
	db := mkdb(t, "emp(ann,sales). emp(bob,accounting).")
	bad, err := PanicHolds(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	if bad {
		t.Error("constraint violated on satisfying database")
	}
	if _, err := db.Insert("emp", relation.Strs("ann", "accounting")); err != nil {
		t.Fatal(err)
	}
	bad, err = PanicHolds(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	if !bad {
		t.Error("violation not detected")
	}
}

func TestEvalNegationAndComparison(t *testing.T) {
	// Example 2.2: every employee with salary under 100 must be in dept.
	prog := parser.MustParseProgram("panic :- emp(E,D,S) & not dept(D) & S < 100.")
	db := mkdb(t, "emp(ann,toy,50). dept(toy).")
	if bad, _ := PanicHolds(prog, db); bad {
		t.Error("false violation")
	}
	if _, err := db.Insert("emp", relation.TupleOf(ast.Str("bob"), ast.Str("shoe"), ast.Int(50))); err != nil {
		t.Fatal(err)
	}
	if bad, _ := PanicHolds(prog, db); !bad {
		t.Error("missed violation: bob in missing dept with low salary")
	}
	// High salary employees are exempt.
	db2 := mkdb(t, "emp(eve,ghost,200). dept(toy).")
	if bad, _ := PanicHolds(prog, db2); bad {
		t.Error("high-salary employee should not trigger the dept check")
	}
}

func TestEvalUnionOfCQs(t *testing.T) {
	// Example 2.3: salary within the department's range.
	prog := parser.MustParseProgram(`
		panic :- emp(E,D,S) & salRange(D,Low,High) & S < Low.
		panic :- emp(E,D,S) & salRange(D,Low,High) & S > High.`)
	db := mkdb(t, "emp(ann,toy,50). salRange(toy,40,60).")
	if bad, _ := PanicHolds(prog, db); bad {
		t.Error("in-range salary flagged")
	}
	if _, err := db.Insert("emp", relation.TupleOf(ast.Str("bob"), ast.Str("toy"), ast.Int(10))); err != nil {
		t.Fatal(err)
	}
	if bad, _ := PanicHolds(prog, db); !bad {
		t.Error("below-range salary missed")
	}
}

func TestEvalRecursiveBoss(t *testing.T) {
	// Example 2.4: nobody is his or her own boss, with transitive boss.
	prog := parser.MustParseProgram(`
		panic :- boss(E,E).
		boss(E,M) :- emp(E,D,S) & manager(D,M).
		boss(E,F) :- boss(E,G) & boss(G,F).`)
	// ann works in toy managed by bob; bob works in shoe managed by carl;
	// carl works in ops managed by ann: a management cycle.
	db := mkdb(t, `
		emp(ann,toy,50). emp(bob,shoe,60). emp(carl,ops,70).
		manager(toy,bob). manager(shoe,carl). manager(ops,ann).`)
	bad, err := PanicHolds(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	if !bad {
		t.Error("management cycle not detected through recursive boss")
	}
	// Break the cycle.
	db.Delete("manager", relation.Strs("ops", "ann"))
	if bad, _ := PanicHolds(prog, db); bad {
		t.Error("acyclic management flagged")
	}
}

func TestEvalTransitiveClosureCompleteness(t *testing.T) {
	// Path over a 60-node chain: semi-naive must reach the far end.
	prog := parser.MustParseProgram(`
		reach(X,Y) :- edge(X,Y).
		reach(X,Y) :- reach(X,Z) & edge(Z,Y).`)
	db := store.New()
	const n = 60
	for i := 0; i < n; i++ {
		if _, err := db.Insert("edge", relation.Ints(int64(i), int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Eval(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	want := n * (n + 1) / 2
	if got := res.Relation("reach").Len(); got != want {
		t.Errorf("reach has %d tuples, want %d", got, want)
	}
	if !res.Relation("reach").Contains(relation.Ints(0, n)) {
		t.Error("endpoint not reached")
	}
}

func TestEvalMutualRecursion(t *testing.T) {
	prog := parser.MustParseProgram(`
		even(X) :- zero(X).
		odd(Y) :- even(X) & succ(X,Y).
		even(Y) :- odd(X) & succ(X,Y).`)
	db := store.New()
	if _, err := db.Insert("zero", relation.Ints(0)); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 20; i++ {
		if _, err := db.Insert("succ", relation.Ints(i, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Eval(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i <= 20; i++ {
		inEven := res.Relation("even").Contains(relation.Ints(i))
		inOdd := res.Relation("odd").Contains(relation.Ints(i))
		if (i%2 == 0) != inEven || (i%2 == 1) != inOdd {
			t.Errorf("n=%d: even=%v odd=%v", i, inEven, inOdd)
		}
	}
}

func TestEvalFig61Intervals(t *testing.T) {
	// The Fig 6.1 program: merge overlapping intervals, then test
	// coverage of the inserted interval (4,8) given (3,6) and (5,10).
	prog := parser.MustParseProgram(`
		interval(X,Y) :- l(X,Y).
		interval(X,Y) :- interval(X,W) & interval(Z,Y) & Z <= W.
		ok :- interval(X,Y) & X <= 4 & 8 <= Y.`)
	db := mkdb(t, "l(3,6). l(5,10).")
	res, err := Eval(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Relation("interval").Contains(relation.Ints(3, 10)) {
		t.Error("merged interval (3,10) not derived")
	}
	if !res.Holds("ok") {
		t.Error("coverage of [4,8] by [3,6] ∪ [5,10] not detected")
	}
	// With a gap, coverage must fail.
	db2 := mkdb(t, "l(3,6). l(7,10).")
	res2, err := Eval(prog, db2)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Holds("ok") {
		t.Error("coverage claimed across the gap (6,7)")
	}
}

func TestEvalIDBNegation(t *testing.T) {
	prog := parser.MustParseProgram(`
		reach(X,Y) :- edge(X,Y).
		reach(X,Y) :- reach(X,Z) & edge(Z,Y).
		panic :- node(X) & node(Y) & not reach(X,Y) & X <> Y.`)
	db := mkdb(t, "node(1). node(2). node(3). edge(1,2). edge(2,3). edge(3,1).")
	if bad, _ := PanicHolds(prog, db); bad {
		t.Error("strongly connected graph flagged as unreachable")
	}
	db.Delete("edge", relation.Ints(3, 1))
	if bad, _ := PanicHolds(prog, db); !bad {
		t.Error("unreachable pair missed")
	}
}

func TestEvalConstantsInAtoms(t *testing.T) {
	prog := parser.MustParseProgram(`panic :- emp(E,sales) & emp(E,accounting).`)
	db := mkdb(t, "emp(ann,sales). emp(ann,accounting). emp(bob,toy).")
	bad, err := PanicHolds(prog, db)
	if err != nil || !bad {
		t.Errorf("constant-argument join failed: bad=%v err=%v", bad, err)
	}
}

func TestEvalRepeatedVariables(t *testing.T) {
	prog := parser.MustParseProgram("panic :- boss(E,E).")
	db := mkdb(t, "boss(ann,bob). boss(carl,carl).")
	if bad, _ := PanicHolds(prog, db); !bad {
		t.Error("diagonal tuple missed by repeated variable")
	}
	db2 := mkdb(t, "boss(ann,bob).")
	if bad, _ := PanicHolds(prog, db2); bad {
		t.Error("non-diagonal tuple matched repeated variable")
	}
}

func TestEvalEmptyEDB(t *testing.T) {
	prog := parser.MustParseProgram("panic :- r(X) & X > 0.")
	if bad, _ := PanicHolds(prog, store.New()); bad {
		t.Error("panic derived from empty database")
	}
}

func TestEvalChargesEDBReads(t *testing.T) {
	prog := parser.MustParseProgram("panic :- r(X) & s(X).")
	db := mkdb(t, "r(1). r(2). s(2).")
	db.ResetReads()
	if _, err := Eval(prog, db); err != nil {
		t.Fatal(err)
	}
	if db.TotalReads() == 0 {
		t.Error("evaluation charged no reads")
	}
}

func TestPanicHoldsPerConstraint(t *testing.T) {
	db := mkdb(t, "emp(ann,ghost,200). dept(toy).")
	for _, src := range []string{"panic :- emp(E,D,S) & not dept(D).", "panic :- emp(E,D,S) & S > 100."} {
		if bad, err := PanicHolds(parser.MustParseProgram(src), db); err != nil || !bad {
			t.Errorf("%s: PanicHolds = %v, %v; want violated", src, bad, err)
		}
	}
}

func TestEvalLinearChainScaling(t *testing.T) {
	// Smoke test that semi-naive evaluation is not quadratic-in-rounds
	// blown up: a 300-node chain closure completes quickly.
	prog := parser.MustParseProgram(`
		reach(X,Y) :- edge(X,Y).
		reach(X,Y) :- reach(X,Z) & edge(Z,Y).`)
	db := store.New()
	const n = 300
	for i := 0; i < n; i++ {
		if _, err := db.Insert("edge", relation.Ints(int64(i), int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	res, err := Eval(prog, db)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := res.Relation("reach").Len(), n*(n+1)/2; got != want {
		t.Errorf("reach = %d, want %d", got, want)
	}
}

func TestEvalDeterministic(t *testing.T) {
	prog := parser.MustParseProgram(`
		p(X,Y) :- e(X,Y).
		p(X,Y) :- p(X,Z) & e(Z,Y).`)
	db := store.New()
	for i := 0; i < 20; i++ {
		if _, err := db.Insert("e", relation.Ints(int64(i%5), int64((i*3)%7))); err != nil {
			t.Fatal(err)
		}
	}
	var first string
	for trial := 0; trial < 3; trial++ {
		res, err := Eval(prog, db)
		if err != nil {
			t.Fatal(err)
		}
		s := fmt.Sprint(res.Relation("p").Len())
		if trial == 0 {
			first = s
		} else if s != first {
			t.Fatal("evaluation nondeterministic across runs")
		}
	}
}

// TestGoalHoldsAgainstEval cross-checks the pruned early-exit evaluation
// against the full evaluator on randomized databases and a spread of
// programs, including programs with rules irrelevant to the goal.
func TestGoalHoldsAgainstEval(t *testing.T) {
	programs := []string{
		"panic :- emp(E,D) & not dept(D).",
		// Irrelevant side computation that GoalHolds must skip.
		"huge(X,Y) :- edge(X,Y).\nhuge(X,Y) :- huge(X,Z) & huge(Z,Y).\npanic :- emp(E,D) & not dept(D).",
		"reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- reach(X,Z) & edge(Z,Y).\npanic :- reach(X,X).",
	}
	rng := rand.New(rand.NewSource(55))
	for pi, src := range programs {
		prog := parser.MustParseProgram(src)
		for trial := 0; trial < 60; trial++ {
			db := store.New()
			for _, rel := range []string{"emp", "edge"} {
				for i := 0; i < rng.Intn(4); i++ {
					if _, err := db.Insert(rel, relation.Ints(int64(rng.Intn(3)), int64(rng.Intn(3)))); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < rng.Intn(3); i++ {
				if _, err := db.Insert("dept", relation.Ints(int64(rng.Intn(3)))); err != nil {
					t.Fatal(err)
				}
			}
			want, err := PanicHolds(prog, db)
			if err != nil {
				t.Fatal(err)
			}
			got, err := GoalHoldsWith(prog, db, ast.PanicPred, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("program %d trial %d: GoalHolds=%v PanicHolds=%v\n%s\n%s", pi, trial, got, want, prog, db)
			}
		}
	}
}

func TestGoalHoldsSkipsIrrelevantWork(t *testing.T) {
	// The irrelevant transitive closure over a long chain must not be
	// computed when the goal doesn't depend on it: compare reads.
	prog := parser.MustParseProgram(`
		huge(X,Y) :- edge(X,Y).
		huge(X,Y) :- huge(X,Z) & edge(Z,Y).
		panic :- emp(E,D) & not dept(D).`)
	db := store.New()
	for i := 0; i < 200; i++ {
		if _, err := db.Insert("edge", relation.Ints(int64(i), int64(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Insert("emp", relation.Ints(1, 2)); err != nil {
		t.Fatal(err)
	}
	db.ResetReads()
	if _, err := GoalHoldsWith(prog, db, ast.PanicPred, Options{}); err != nil {
		t.Fatal(err)
	}
	if got := db.Reads("edge"); got != 0 {
		t.Errorf("GoalHolds read %d edge tuples for an independent goal", got)
	}
}

// An atom all of whose arguments are bound is one probe that can only
// prune: it is planned before any atom that binds a variable, even one
// with as many bound arguments.
func TestPlanBoundProbeFirst(t *testing.T) {
	x := Term{Kind: TermParam, Pos: 0}
	y, z := Term{Kind: TermVar, Name: "Y"}, Term{Kind: TermVar, Name: "Z"}
	body := []Lit{
		{Pred: "edge", Args: []Term{x, y}},
		{Pred: "edge", Args: []Term{x, z}},
		{Comp: true, Op: ast.Lt, L: y, R: z},
		{Pred: "banned", Args: []Term{x}},
	}
	got := ast.NewProgram(&ast.Rule{Head: ast.Atom{Pred: ast.PanicPred}, Body: PlanBody(body, false).Literals(relation.Ints(8))}).String()
	if want := "panic :- banned(8) & edge(8,R$0) & edge(8,R$1) & R$0 < R$1."; got != want {
		t.Errorf("planned\n%s\nwant\n%s", got, want)
	}
	// The scan arm keeps textual order.
	got = ast.NewProgram(&ast.Rule{Head: ast.Atom{Pred: ast.PanicPred}, Body: PlanBody(body, true).Literals(relation.Ints(8))}).String()
	if want := "panic :- edge(8,R$0) & edge(8,R$1) & R$0 < R$1 & banned(8)."; got != want {
		t.Errorf("scan arm planned\n%s\nwant\n%s", got, want)
	}
}

func TestGoalHoldsNoRules(t *testing.T) {
	prog := parser.MustParseProgram("p(X) :- e(X).")
	ok, err := GoalHoldsWith(prog, store.New(), ast.PanicPred, Options{})
	if err != nil || ok {
		t.Errorf("GoalHolds with no goal rules: %v %v", ok, err)
	}
}
