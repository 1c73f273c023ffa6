package residual

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

func prog(t testing.TB, src string) *ast.Program {
	t.Helper()
	return parser.MustParseProgram(src)
}

func TestDeriveShapeEligibility(t *testing.T) {
	for _, tc := range []struct {
		src      string
		rel      string
		insert   bool
		eligible bool
		arity    int
		pinned   []bool
	}{
		// Flat constraint, positive occurrence of the inserted relation.
		{"panic :- emp(E,D) & not dept(D).", "emp", true, true, 2, []bool{false, false}},
		// Deleting dept is harmful through the negated occurrence.
		{"panic :- emp(E,D) & not dept(D).", "dept", false, true, 1, []bool{false}},
		// Inserting dept has no harmful occurrence: any tuple is safe.
		{"panic :- emp(E,D) & not dept(D).", "dept", true, true, -1, nil},
		// A constant in a harmful occurrence pins the position.
		{"panic :- emp(E,sales,S) & emp(E,accounting,S).", "emp", true, true, 3, []bool{false, true, false}},
		// Helper (IDB) predicates are unfolded first (Flatten).
		{"panic :- boss(E,E).\nboss(E,M) :- mgr(E,M).", "mgr", true, true, 2, []bool{false, false}},
		// A recursive constraint has no flat form.
		{"panic :- reach(X,X).\nreach(X,Y) :- mgr(X,Y).\nreach(X,Y) :- reach(X,Z) & mgr(Z,Y).", "mgr", true, false, 0, nil},
		// Updates to the goal predicate itself are never eligible.
		{"panic :- p(X).", "panic", true, false, 0, nil},
	} {
		sh := DeriveShape(Flatten(prog(t, tc.src)), tc.rel, tc.insert)
		if sh.Eligible != tc.eligible {
			t.Errorf("%q %s insert=%v: eligible=%v, want %v", tc.src, tc.rel, tc.insert, sh.Eligible, tc.eligible)
			continue
		}
		if !sh.Eligible {
			continue
		}
		if sh.Arity != tc.arity {
			t.Errorf("%q %s: arity=%d, want %d", tc.src, tc.rel, sh.Arity, tc.arity)
		}
		if len(sh.Pinned) != len(tc.pinned) {
			t.Errorf("%q %s: pinned=%v, want %v", tc.src, tc.rel, sh.Pinned, tc.pinned)
			continue
		}
		for i := range tc.pinned {
			if sh.Pinned[i] != tc.pinned[i] {
				t.Errorf("%q %s: pinned=%v, want %v", tc.src, tc.rel, sh.Pinned, tc.pinned)
				break
			}
		}
	}
}

// Flatten keeps a flat program, unfolds helpers into a union of panic
// rules equivalent to the program as written, and refuses recursion, the
// negated helpers Expand cannot unfold, and an expansion past flatCap.
func TestFlattenCap(t *testing.T) {
	flat := prog(t, "panic :- e(X,Y) & not f(Y).")
	if Flatten(flat) != flat {
		t.Error("a flat program was rewritten")
	}
	// a has m rules, b has n: the expansion of a(X) & b(X) has m·n.
	product := func(m, n int) *ast.Program {
		var sb strings.Builder
		for i := 0; i < m; i++ {
			fmt.Fprintf(&sb, "a(X) :- p%d(X).\n", i)
		}
		for i := 0; i < n; i++ {
			fmt.Fprintf(&sb, "b(X) :- q%d(X).\n", i)
		}
		sb.WriteString("panic :- a(X) & b(X).")
		return prog(t, sb.String())
	}
	if f := Flatten(product(4, flatCap/4)); f == nil || len(f.Rules) != flatCap {
		t.Errorf("an expansion of %d rules: %v, want it kept", flatCap, f)
	}
	if f := Flatten(product(4, flatCap/4+1)); f != nil {
		t.Errorf("an expansion of %d rules was kept", len(f.Rules))
	}
	for _, src := range []string{
		"panic :- r(X,X).\nr(X,Y) :- e(X,Y).\nr(X,Y) :- r(X,Z) & e(Z,Y).",
		"out(X) :- e(X,Y).\npanic :- f(X) & not out(X).", // not a copy rule
	} {
		if f := Flatten(prog(t, src)); f != nil {
			t.Errorf("%s flattened to\n%s", src, f)
		}
	}
	if got := Flatten(prog(t, "m(X) :- f(X).\nok(1).\npanic :- e(X,Y) & not m(Y) & not ok(X).")).String(); got != "panic :- e(X,Y) & not f(Y) & X <> 1." {
		t.Errorf("negated copy rule and fact unfold to %s", got)
	}
}

// compileFor derives the shape and compiles in one step, failing the test
// on an ineligible pattern.
func compileFor(t *testing.T, src, rel string, insert bool, tu relation.Tuple, db *store.Store) *Residual {
	t.Helper()
	p := prog(t, src)
	sh := DeriveShape(p, rel, insert)
	if !sh.Eligible {
		t.Fatalf("%q not residual-eligible for %s", src, rel)
	}
	return Compile(p, rel, insert, tu, sh, db, Options{})
}

func TestCompileOutcomes(t *testing.T) {
	db := store.New()
	// The update alone completes the derivation.
	r := compileFor(t, "panic :- p(X).", "p", true, relation.Strs("a"), db)
	if r.Outcome() != AlwaysViolating {
		t.Errorf("bare occurrence: outcome %v, want always-violating", r.Outcome())
	}
	if !r.Decide(db, relation.Strs("a")) {
		t.Error("always-violating residual decided safe")
	}
	// No harmful occurrence: always safe.
	r = compileFor(t, "panic :- emp(E,D) & not dept(D).", "dept", true, relation.Strs("toy"), db)
	if r.Outcome() != AlwaysSafe {
		t.Errorf("benign insert: outcome %v, want always-safe", r.Outcome())
	}
	if r.Decide(db, relation.Strs("toy")) {
		t.Error("always-safe residual decided violating")
	}
	// A pinned constant clashing with the tuple folds the disjunct away.
	r = compileFor(t, "panic :- p(a) & q(X).", "p", true, relation.Strs("b"), db)
	if r.Outcome() != AlwaysSafe {
		t.Errorf("constant clash: outcome %v, want always-safe", r.Outcome())
	}
	// The matching pinned value leaves the rest of the body as residual.
	r = compileFor(t, "panic :- p(a) & q(X).", "p", true, relation.Strs("a"), db)
	if r.Outcome() != ResidualGoal || r.Disjuncts() != 1 {
		t.Errorf("pinned match: outcome %v disjuncts %d, want residual-goal/1", r.Outcome(), r.Disjuncts())
	}
	// An ineq-unsatisfiable comparison set prunes at compile time: the
	// surviving conjunction X < 3 & X > 5 over the parameter is empty.
	r = compileFor(t, "panic :- p(X) & X < 3 & X > 5.", "p", true, relation.Ints(4), db)
	if r.Outcome() != AlwaysSafe {
		t.Errorf("unsatisfiable comparisons: outcome %v, want always-safe", r.Outcome())
	}
	// A ground-false comparison after pinning folds the disjunct.
	r = compileFor(t, "panic :- p(7,X) & q(X).", "p", true, relation.Ints(7, 1), db)
	if r.Outcome() != ResidualGoal {
		t.Errorf("pinned fold: outcome %v, want residual-goal", r.Outcome())
	}
	// Arity mismatch between tuple and every occurrence: trivially safe.
	r = compileFor(t, "panic :- p(X,Y) & q(X).", "p", true, relation.Ints(1), db)
	if r.Outcome() != AlwaysSafe {
		t.Errorf("arity mismatch: outcome %v, want always-safe", r.Outcome())
	}
}

func TestRepeatedVariableGuard(t *testing.T) {
	// panic :- p(X,X): neither position is pinned, so one compiled
	// residual serves every binary tuple; the repeated variable becomes a
	// parameter-parameter equality guard.
	db := store.New()
	r := compileFor(t, "panic :- p(X,X).", "p", true, relation.Strs("a", "a"), db)
	if r.Outcome() != ResidualGoal {
		t.Fatalf("outcome %v, want residual-goal", r.Outcome())
	}
	if !r.Decide(db, relation.Strs("c", "c")) {
		t.Error("p(c,c) not flagged")
	}
	if r.Decide(db, relation.Strs("a", "b")) {
		t.Error("p(a,b) flagged")
	}
}

func TestDecideDeleteNegatedOccurrence(t *testing.T) {
	// Referential integrity: deleting a department is harmful through the
	// negated occurrence; the residual asks whether any employee still
	// references it on the post-update database.
	db := store.New()
	for _, f := range [][]string{{"ann", "toy"}, {"bob", "shoe"}} {
		if _, err := db.Insert("emp", relation.Strs(f...)); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range []string{"toy", "shoe"} {
		if _, err := db.Insert("dept", relation.Strs(d)); err != nil {
			t.Fatal(err)
		}
	}
	r := compileFor(t, "panic :- emp(E,D) & not dept(D).", "dept", false, relation.Strs("toy"), db)
	if r.Outcome() != ResidualGoal {
		t.Fatalf("outcome %v, want residual-goal", r.Outcome())
	}
	// Residuals evaluate post-update: delete first, then decide.
	del := store.Del("dept", relation.Strs("toy"))
	if err := del.Apply(db); err != nil {
		t.Fatal(err)
	}
	if !r.Decide(db, relation.Strs("toy")) {
		t.Error("deleting referenced dept not flagged")
	}
	// The same compiled residual (no pinned positions) serves shoe after
	// bob is gone: safe.
	if !db.Delete("emp", relation.Strs("bob", "shoe")) {
		t.Fatal("fixture delete failed")
	}
	if err := store.Del("dept", relation.Strs("shoe")).Apply(db); err != nil {
		t.Fatal(err)
	}
	if r.Decide(db, relation.Strs("shoe")) {
		t.Error("deleting unreferenced dept flagged")
	}
}

// TestDecideMatchesEval drives randomized interval streams through the
// compiled residual and the full evaluator on identical post-update
// stores; the residual's verdict must equal "panic derivable".
func TestDecideMatchesEval(t *testing.T) {
	const src = "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."
	p := prog(t, src)
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for trial := 0; trial < 200; trial++ {
		db := store.New()
		for i := 0; i < 3; i++ {
			lo := rng.Int63n(50)
			if _, err := db.Insert("l", relation.Ints(lo, lo+rng.Int63n(30))); err != nil {
				t.Fatal(err)
			}
			if _, err := db.Insert("r", relation.Ints(rng.Int63n(120))); err != nil {
				t.Fatal(err)
			}
		}
		// The simplified-checking argument rests on the standing invariant
		// that the constraint holds before the update; discard pre-states
		// that already violate it.
		if pre, err := eval.PanicHolds(p, db.Clone()); err != nil {
			t.Fatal(err)
		} else if pre {
			continue
		}
		checked++
		var u store.Update
		if rng.Intn(2) == 0 {
			lo := rng.Int63n(80)
			u = store.Ins("l", relation.Ints(lo, lo+rng.Int63n(40)))
		} else {
			u = store.Ins("r", relation.Ints(rng.Int63n(120)))
		}
		sh := DeriveShape(p, u.Relation, u.Insert)
		if !sh.Eligible {
			t.Fatal("interval pattern ineligible")
		}
		for _, opts := range []Options{{}, {DisableIndexes: true}} {
			res := Compile(p, u.Relation, u.Insert, u.Tuple, sh, db, opts)
			post := db.Clone()
			if err := u.Apply(post); err != nil {
				t.Fatal(err)
			}
			want, err := eval.PanicHolds(p, post.Clone())
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Decide(post, u.Tuple); got != want {
				t.Fatalf("trial %d opts %+v: residual=%v eval=%v for %v on\n%s",
					trial, opts, got, want, u, db)
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d trials survived the pre-state filter", checked)
	}
}

// TestProgramRendering checks that the rendered residual program agrees
// with Decide when run through the full evaluator — the cross-check the
// subquery path and the oracle tests rely on.
func TestProgramRendering(t *testing.T) {
	db := store.New()
	for _, tu := range [][]int64{{3, 6}, {5, 10}} {
		if _, err := db.Insert("l", relation.Ints(tu[0], tu[1])); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Insert("r", relation.Ints(100)); err != nil {
		t.Fatal(err)
	}
	r := compileFor(t, "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.", "l", true, relation.Ints(90, 110), db)
	for _, tc := range []struct {
		tu   relation.Tuple
		want bool
	}{
		{relation.Ints(90, 110), true},
		{relation.Ints(40, 50), false},
	} {
		post := db.Clone()
		if _, err := post.Insert("l", tc.tu); err != nil {
			t.Fatal(err)
		}
		if got := r.Decide(post, tc.tu); got != tc.want {
			t.Fatalf("Decide(%v) = %v, want %v", tc.tu, got, tc.want)
		}
		holds, err := eval.PanicHolds(r.Program(tc.tu), post)
		if err != nil {
			t.Fatal(err)
		}
		if holds != tc.want {
			t.Errorf("rendered program for %v evaluates to %v, want %v:\n%s",
				tc.tu, holds, tc.want, r.Program(tc.tu))
		}
	}
	// AlwaysViolating renders as the bare panic fact.
	av := compileFor(t, "panic :- p(X).", "p", true, relation.Strs("a"), db)
	if holds, err := eval.PanicHolds(av.Program(relation.Strs("a")), db.Clone()); err != nil || !holds {
		t.Errorf("always-violating program: holds=%v err=%v", holds, err)
	}
	// AlwaysSafe renders as a program with no panic derivation.
	as := compileFor(t, "panic :- emp(E,D) & not dept(D).", "dept", true, relation.Strs("x"), db)
	if holds, err := eval.PanicHolds(as.Program(relation.Strs("x")), db.Clone()); err != nil || holds {
		t.Errorf("always-safe program: holds=%v err=%v", holds, err)
	}
}

// TestEmbeddedResidualsUnchanged pins what a checker with nothing remote
// compiles for the constraints of the benchmark's three embedded
// workloads (embed_flat and serve_http share theirs; of embed_recursive's
// the recursive one is refused, the helper one compiles from its
// expansion): the renderings recorded at the commit before local
// certificates existed, and no certificate — those are compiled only
// under Options.Local.
func TestEmbeddedResidualsUnchanged(t *testing.T) {
	const (
		fi      = "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."
		ri      = "panic :- emp(E,D,S) & not dept(D)."
		low     = "panic :- emp(E,D,S) & salRange(D,Low,High) & S < Low."
		high    = "panic :- emp(E,D,S) & salRange(D,Low,High) & S > High."
		acyclic = "reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- reach(X,Z) & edge(Z,Y).\npanic :- reach(X,X)."
		hub     = "hub(X) :- edge(X,Y) & edge(X,Z) & Y < Z.\npanic :- hub(X) & banned(X)."
	)
	tuples := map[string]relation.Tuple{
		"l": relation.Ints(3, 9), "r": relation.Ints(5),
		"emp":      relation.TupleOf(ast.Str("ann"), ast.Str("toy"), ast.Int(50)),
		"dept":     relation.Strs("toy"),
		"salRange": relation.TupleOf(ast.Str("toy"), ast.Int(10), ast.Int(90)),
		"edge":     relation.Ints(1, 2), "banned": relation.Ints(1),
	}
	db := store.New()
	for _, c := range []struct {
		src, rel string
		insert   bool
		want     string
	}{
		{fi, "l", true, "residual-goal: panic :- r(R$0) & 3 <= R$0 & R$0 <= 9."},
		{fi, "l", false, "always-safe: "},
		{fi, "r", true, "residual-goal: panic :- l(R$0,R$1) & R$0 <= 5 & 5 <= R$1."},
		{fi, "r", false, "always-safe: "},
		{ri, "dept", true, "always-safe: "},
		{ri, "dept", false, "residual-goal: panic :- emp(R$0,toy,R$1)."},
		{ri, "emp", true, "residual-goal: panic :- not dept(toy)."},
		{ri, "emp", false, "always-safe: "},
		{low, "emp", true, "residual-goal: panic :- salRange(toy,R$0,R$1) & 50 < R$0."},
		{low, "emp", false, "always-safe: "},
		{low, "salRange", true, "residual-goal: panic :- emp(R$0,toy,R$1) & R$1 < 10."},
		{low, "salRange", false, "always-safe: "},
		{high, "emp", true, "residual-goal: panic :- salRange(toy,R$0,R$1) & 50 > R$1."},
		{high, "emp", false, "always-safe: "},
		{high, "salRange", true, "residual-goal: panic :- emp(R$0,toy,R$1) & R$1 > 90."},
		{high, "salRange", false, "always-safe: "},
		{acyclic, "edge", true, "ineligible"},
		{acyclic, "edge", false, "ineligible"},
		// The helper unfolds (Flatten): a self-join of edge, every
		// occurrence harmful; the bound banned probe is planned first.
		{hub, "banned", true, "residual-goal: panic :- edge(1,R$0) & edge(1,R$1) & R$0 < R$1."},
		{hub, "banned", false, "always-safe: "},
		{hub, "edge", true, "residual-goal: panic :- banned(1) & edge(1,R$0) & 2 < R$0.\npanic :- banned(1) & edge(1,R$0) & R$0 < 2."},
		{hub, "edge", false, "always-safe: "},
	} {
		p := Flatten(prog(t, c.src))
		got := "ineligible" // recursive: no flat form
		if sh := DeriveShape(p, c.rel, c.insert); sh.Eligible {
			res := Compile(p, c.rel, c.insert, tuples[c.rel], sh, db, Options{})
			got = res.Outcome().String() + ": " + res.Program(tuples[c.rel]).String()
			if n := res.Certificates(); n != 0 {
				t.Errorf("%s, %s insert=%v: %d certificates with nothing remote", c.src, c.rel, c.insert, n)
			}
		}
		if got != c.want {
			t.Errorf("%s, %s insert=%v compiles to\n%s\nwant\n%s", c.src, c.rel, c.insert, got, c.want)
		}
	}
}

// rangesOf renders the range steps of res's disjuncts (eval.Plan.Ranges),
// "; "-separated.
func rangesOf(res *Residual) string {
	var out []string
	for _, d := range res.disjuncts {
		out = append(out, d.plan.Ranges())
	}
	return strings.Join(out, "; ")
}

// TestRangeStepPlanning pins when a positive step is ranged: it has no
// hash-probe column, and an order comparison relates a variable it binds
// first to a constant, a parameter or an earlier register (either operand
// order; the first lower and upper bound per column). A bound column keeps
// the hash probe; = and <> bound nothing, nor does a comparison inside the
// atom, and the scan arm ranges nothing.
func TestRangeStepPlanning(t *testing.T) {
	const icq = "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."
	for _, c := range []struct {
		src, rel string
		tu       relation.Tuple
		opts     Options
		want     string
	}{
		{icq, "l", relation.Ints(3, 9), Options{}, "r{0:[$0,$1]}"},
		{icq, "r", relation.Ints(5), Options{}, "l{0:,$0] 1:[$0,}"},
		{icq, "r", relation.Ints(5), Options{DisableIndexes: true}, ""},
		{"panic :- l(X,Y) & r(Z) & Z >= X & Y >= Z.", "r", relation.Ints(5), Options{}, "l{0:,$0] 1:[$0,}"},
		{"panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y & Z < 2.", "l", relation.Ints(0, 9), Options{}, "r{0:[$0,$1]}"},
		{"panic :- l(X,Y) & r(Z) & X < Y & Y <= Z.", "r", relation.Ints(5), Options{}, "l{1:,$0]}"},
		{"panic :- c(K) & a(K,X) & b(Y) & X < Y.", "c", relation.Ints(1), Options{}, "b{0:(R$0,}"},
		{"panic :- c(K) & a(K,X) & b(Y) & X < Y.", "a", relation.Ints(1, 2), Options{}, "b{0:($1,}"},
		{"panic :- c(K) & a(K,X) & b(Y) & X < Y.", "b", relation.Ints(1), Options{}, ""},
		{"panic :- q(W) & r(Z) & Z > 3 & Z <= 7.", "q", relation.Ints(1), Options{}, "r{0:(3,7]}"},
		{"panic :- q(W) & r(Z) & Z = W.", "q", relation.Ints(1), Options{}, ""},
		{"panic :- q(W) & r(Z) & Z <> W.", "q", relation.Ints(1), Options{}, ""},
		{"panic :- q(W) & r(W,Z) & Z < W.", "q", relation.Ints(1), Options{}, ""},
		{"panic :- q(W) & r(Z,V) & V = W & Z < W.", "q", relation.Ints(1), Options{}, "r{0:,$0)}"},
		{"panic :- e(X,Y) & e(Z,W) & X <= Z & Z <= Y & f(W).", "e", relation.Ints(1, 5), Options{}, "e{0:[$0,$1]}; e{0:,$0] 1:[$0,}"},
		{"panic :- e(X,Y) & e(Z,W) & X <= Z & Z <= Y & f(W).", "f", relation.Ints(2), Options{}, "e{0:,R$0] 1:[R$0,}"},
	} {
		p := prog(t, c.src)
		sh := DeriveShape(p, c.rel, true)
		if !sh.Eligible {
			t.Fatalf("%s: +%s ineligible", c.src, c.rel)
		}
		if got := rangesOf(Compile(p, c.rel, true, c.tu, sh, store.New(), c.opts)); got != c.want {
			t.Errorf("%s, +%s%v %+v: ranges %q, want %q", c.src, c.rel, c.tu, c.opts, got, c.want)
		}
	}
}

// BenchmarkRangeStep times the forbidden-interval residual on the
// embed_flat store — seed 1's employees, 200 intervals l(X,Y) with X in
// [0,200) and Y ≤ X+20, and the points r(10000…10049) — ranged and under
// DisableIndexes (the scan), and reports the tuples each decision reads.
// The worst case is a point with long spans on both sides that no interval
// covers; the intervals cover [0,220] densely, so the ones covering 110
// are deleted to make one.
func BenchmarkRangeStep(b *testing.B) {
	const icq = "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."
	rng := rand.New(rand.NewSource(1))
	db := store.New()
	if err := workload.EmployeeDB(rng, db, 20, 5000); err != nil {
		b.Fatal(err)
	}
	ls := workload.Intervals(rng, 200, 20, 200)
	for _, tu := range ls {
		if _, err := db.Insert("l", tu); err != nil {
			b.Fatal(err)
		}
	}
	for i := int64(0); i < 50; i++ {
		if _, err := db.Insert("r", relation.Ints(10_000+i)); err != nil {
			b.Fatal(err)
		}
	}
	xs := make([]int64, len(ls))
	for i, tu := range ls {
		xs[i] = tu[0].Num.Num().Int64()
	}
	slices.Sort(xs)
	mid := ast.Int(110)
	gap := db.Clone()
	for _, tu := range ls {
		if tu[0].Compare(mid) <= 0 && tu[1].Compare(mid) >= 0 {
			gap.Delete("l", tu)
		}
	}
	p := prog(b, icq)
	for _, c := range []struct {
		name string
		db   *store.Store
		u    store.Update
		want bool
	}{
		{"safe-r-above", db, store.Ins("r", relation.Ints(5000)), false},
		{"covered-r", db, store.Ins("r", relation.Ints(xs[len(xs)/2])), true},
		{"worst-uncovered-r", gap, store.Ins("r", relation.TupleOf(mid)), false},
		{"l-covering-a-point", db, store.Ins("l", relation.Ints(10_010, 10_012)), true},
	} {
		for _, arm := range []struct {
			name string
			opts Options
		}{{"ranged", Options{}}, {"scan", Options{DisableIndexes: true}}} {
			b.Run(c.name+"/"+arm.name, func(b *testing.B) {
				res := Compile(p, c.u.Relation, true, c.u.Tuple, DeriveShape(p, c.u.Relation, true), c.db, arm.opts)
				if res.Decide(c.db, c.u.Tuple) != c.want {
					b.Fatalf("%v: violated=%v", c.u, !c.want)
				}
				c.db.ResetReads()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res.Decide(c.db, c.u.Tuple)
				}
				b.StopTimer()
				b.ReportMetric(float64(c.db.TotalReads("l", "r"))/float64(b.N), "reads/op")
			})
		}
	}
}

// TestScanArmUsesNoIndex holds the DisableIndexes arm to what it is for —
// a reference that shares no shortcut with what it checks: neither an
// evaluation over an atom with a constant nor a residual decision builds
// or probes an index.
func TestScanArmUsesNoIndex(t *testing.T) {
	db := store.New()
	for i := int64(0); i < 20; i++ {
		for _, f := range []struct {
			rel string
			tu  relation.Tuple
		}{{"e", relation.Ints(i%4, i)}, {"f", relation.Ints(i)}, {"l", relation.Ints(i, i+3)}, {"r", relation.Ints(2 * i)}} {
			if _, err := db.Insert(f.rel, f.tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	builds, probes := relation.IndexBuilds(), relation.IndexProbes()
	res, err := eval.EvalWith(prog(t, "p(Y) :- e(1,Y) & f(Y) & not e(Y,1).\nq(X) :- p(X) & l(X,Y) & r(Z) & X <= Z & Z <= Y."), db, eval.Options{DisableIndexes: true})
	if err != nil || len(res.Tuples("p")) != 4 || len(res.Tuples("q")) != 4 {
		t.Fatalf("scan-arm evaluation: p=%v q=%v err=%v", res.Tuples("p"), res.Tuples("q"), err)
	}
	icq := prog(t, "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.")
	u := store.Ins("l", relation.Ints(41, 45))
	r := Compile(icq, u.Relation, true, u.Tuple, DeriveShape(icq, u.Relation, true), db, Options{DisableIndexes: true})
	if r.Decide(db, u.Tuple) {
		t.Fatalf("%v decided a violation", u)
	}
	if b, p := relation.IndexBuilds()-builds, relation.IndexProbes()-probes; b != 0 || p != 0 {
		t.Fatalf("the scan arm built %d indexes and probed %d times", b, p)
	}
}
