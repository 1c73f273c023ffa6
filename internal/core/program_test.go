package core

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/residual"
	"repro/internal/store"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/program_golden.txt from this build's reports, stats and traces")

// goldenShape is one checker and update stream of TestProgramReportsUnchanged.
type goldenShape struct {
	name string
	seed int64
	opts Options
	// build seeds the store, registers the constraints and returns the
	// stream; rng is the shape's own.
	build func(t *testing.T, rng *rand.Rand, db *store.Store, add func(name, src string)) []store.Update
}

func empTuple(name, dept string, sal int64) relation.Tuple {
	return relation.TupleOf(ast.Str(name), ast.Str(dept), ast.Int(sal))
}

// oracleShape draws the constraint set and stream of one seed of
// TestCheckerAgainstOracles: every pool constraint the seeded store
// admits, over e, f, g and h.
func oracleShape(seed int64) goldenShape {
	return goldenShape{
		name: fmt.Sprintf("oracle-%d", seed),
		seed: seed,
		build: func(t *testing.T, rng *rand.Rand, db *store.Store, add func(name, src string)) []store.Update {
			for rel, n := range oracleArity {
				db.MustEnsure(rel, n)
			}
			for i := 0; i < 3; i++ {
				if _, err := db.Insert("e", randomTuple(rng, "e")); err != nil {
					t.Fatal(err)
				}
			}
			for _, k := range oracleConstraints {
				add(k.name, k.src)
			}
			us := make([]store.Update, 48)
			for i := range us {
				us[i] = randomUpdate(rng)
			}
			// A tuple the stored relation cannot take: refused, not decided.
			return append(us, store.Ins("e", relation.Ints(1)))
		},
	}
}

// flatFixture is the employee database of the trace tests with the D1
// intervals beside it.
func flatFixture(t *testing.T, db *store.Store, add func(name, src string)) {
	if err := db.LoadFacts(parser.MustParseProgram(
		"emp(ann,toy,50). dept(toy). dept(sales). salRange(toy,10,60). salRange(sales,20,90). l(3,6). l(5,10). r(100).")); err != nil {
		t.Fatal(err)
	}
	add("ri", "panic :- emp(E,D,S) & not dept(D).")
	add("cap", "panic :- emp(E,D,S) & S > 100.")
	add("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.")
	std := workload.StandardEmployeeConstraints()
	for _, name := range []string{"range-low", "range-high"} {
		add(name, std[name])
	}
}

// flatBuild is the build of the shapes over flatFixture.
func flatBuild(t *testing.T, rng *rand.Rand, db *store.Store, add func(name, src string)) []store.Update {
	flatFixture(t, db, add)
	return flatStream(rng)
}

func flatStream(rng *rand.Rand) []store.Update {
	depts := []string{"toy", "sales", "ghost"}
	var us []store.Update
	for i := 0; i < 40; i++ {
		switch rng.Intn(6) {
		case 0:
			us = append(us, store.Ins("l", relation.Ints(int64(rng.Intn(12)), int64(4+rng.Intn(120)))))
		case 1:
			us = append(us, store.Ins("r", relation.Ints(int64(rng.Intn(130)))))
		case 2:
			us = append(us, store.Del("emp", empTuple(fmt.Sprintf("h%d", rng.Intn(i+1)), depts[rng.Intn(2)], int64(rng.Intn(120)))))
		case 3:
			us = append(us, store.Del("dept", relation.Strs(depts[rng.Intn(3)])))
		default:
			us = append(us, store.Ins("emp", empTuple(fmt.Sprintf("h%d", i), depts[rng.Intn(3)], int64(rng.Intn(120)))))
		}
	}
	return us
}

var goldenShapes = []goldenShape{
	oracleShape(0), oracleShape(1), oracleShape(2), oracleShape(3),
	{
		// Occurrences that carry constants: the compiled check depends on
		// the tuple's value at those positions.
		name: "pinned",
		seed: 11,
		build: func(t *testing.T, rng *rand.Rand, db *store.Store, add func(name, src string)) []store.Update {
			if err := db.LoadFacts(parser.MustParseProgram("dept(toy). dept(sales). emp(ann,toy,50).")); err != nil {
				t.Fatal(err)
			}
			add("sales-cap", "panic :- emp(E,sales,S) & S > 100.")
			add("ri", "panic :- emp(E,D,S) & not dept(D).")
			add("boss-floor", "panic :- emp(boss,D,S) & S < 10.")
			add("toy-stays", "panic :- emp(E,toy,S) & not dept(toy).")
			names, depts := []string{"boss", "bob", "cid"}, []string{"toy", "sales", "ghost"}
			var us []store.Update
			for i := 0; i < 40; i++ {
				u := store.Ins("emp", empTuple(names[rng.Intn(3)], depts[rng.Intn(3)], int64(rng.Intn(200))))
				switch rng.Intn(5) {
				case 0:
					u.Insert = false
				case 1:
					u = store.Del("dept", relation.Strs(depts[rng.Intn(3)]))
				}
				us = append(us, u)
			}
			return us
		},
	},
	{
		// A flat and a recursive constraint on the same relation, one
		// relation (q) the store does not hold yet — the commit that creates
		// it moves the schema — and one constraint nothing in the stream
		// touches.
		name: "mixed",
		seed: 12,
		build: func(t *testing.T, rng *rand.Rand, db *store.Store, add func(name, src string)) []store.Update {
			for _, rel := range []string{"e", "f", "g", "h"} {
				db.MustEnsure(rel, oracleArity[rel])
			}
			add("flat", "panic :- e(X,X) & f(X).")
			add("acyclic", oracleConstraints[0].src)
			add("fresh", "panic :- q(X) & f(X) & not g(X).")
			add("hub", oracleConstraints[2].src)
			add("aside", "panic :- zz(X) & not yy(X).")
			var us []store.Update
			for i := 0; i < 40; i++ {
				if i%8 == 3 {
					us = append(us, store.Update{Relation: "q", Insert: i%16 == 3, Tuple: relation.Ints(int64(rng.Intn(4)))})
					continue
				}
				us = append(us, randomUpdate(rng))
			}
			return us
		},
	},
	{
		// Something is remote: certificates, the complete local tests, and
		// plans that say which relations a decision would read.
		name:  "local",
		seed:  13,
		opts:  Options{LocalRelations: []string{"emp", "l"}},
		build: flatBuild,
	},
	{
		name:  "pipeline",
		seed:  14,
		opts:  Options{LocalRelations: []string{"emp", "l", "dept"}, DisableResidual: true},
		build: flatBuild,
	},
	{
		name:  "pipeline-nocache",
		seed:  14,
		opts:  Options{LocalRelations: []string{"emp", "l", "dept"}, DisableResidual: true, DisableCache: true},
		build: flatBuild,
	},
	{
		name:  "no-update-only",
		seed:  1,
		opts:  Options{DisableUpdateOnly: true},
		build: oracleShape(1).build,
	},
}

// sliceTracer keeps every event it is handed.
type sliceTracer struct {
	mu     sync.Mutex
	events []obs.Event
}

func (s *sliceTracer) Enabled() bool { return true }

func (s *sliceTracer) Emit(e obs.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *sliceTracer) take() []obs.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	ev := s.events
	s.events = nil
	return ev
}

func decisionsText(ds []Decision) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = fmt.Sprintf("%s:%s:%s", d.Constraint, d.Phase, d.Verdict)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func witnessesText(ws []Witness) string {
	parts := make([]string, len(ws))
	for i, w := range ws {
		parts[i] = w.Constraint + "=" + w.Tuple.String()
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// eventText renders what of an event does not depend on the clock.
func eventText(e obs.Event) string {
	return fmt.Sprintf("  %d %s %s/%s decided=%v verdict=%q cache=%q cert=%q witness=%q rel=%v n=%d applied=%v rejected=%v probes=%d err=%q",
		e.Seq, e.Kind, e.Constraint, e.Phase, e.Decided, e.Verdict, e.Cache, e.Certificate, e.Witness,
		e.Relations, e.Constraints, e.Applied, e.Rejected, e.IndexProbes, e.Err)
}

func statsText(s Stats) string {
	var phases []string
	for p, n := range s.ByPhase {
		phases = append(phases, fmt.Sprintf("%s=%d", p, n))
	}
	sort.Strings(phases)
	return fmt.Sprintf("stats updates=%d decisions=%d rejected=%d phases=%v residual=%d/%d/%d cache=%d/%d certified=%d fixpoint=%d/%d/%d",
		s.Updates, s.Decisions, s.Rejected, phases,
		s.ResidualHits, s.ResidualMisses, s.ResidualCompiled,
		s.CacheHits, s.CacheMisses, s.LocalCertified, s.FixpointHits, s.FixpointRebuilds, s.FixpointDrops)
}

// runGoldenShape drives the shape's stream — Check, Apply, and Plan
// finished by Decide, in turn — and renders every report, the trace of
// every decision when traced, and the statistics at the end. Lines that
// only a traced run has start with two spaces.
func runGoldenShape(t *testing.T, sh goldenShape, traced bool) string {
	t.Helper()
	db := store.New()
	opts := sh.opts
	var tr *sliceTracer
	if traced {
		tr = &sliceTracer{}
		opts.Tracer = tr
	}
	chk := New(db, opts)
	add := func(name, src string) {
		// AddConstraint refuses what the seeded store violates; the shape
		// then runs without it, on every arm alike.
		_ = chk.AddConstraintSource(name, src)
	}
	us := sh.build(t, rand.New(rand.NewSource(sh.seed)), db, add)
	var out strings.Builder
	fmt.Fprintf(&out, "== %s constraints=%v\n", sh.name, chk.Constraints())
	report := func(op string, u store.Update, rep Report, err error) {
		fmt.Fprintf(&out, "%s %v applied=%v %s witnesses=%s err=%v\n", op, u, rep.Applied, decisionsText(rep.Decisions), witnessesText(rep.Witnesses), err)
		if traced {
			for _, e := range tr.take() {
				out.WriteString(eventText(e) + "\n")
			}
		}
	}
	for i, u := range us {
		switch i % 4 {
		case 0:
			rep, err := chk.Check(u)
			report("check", u, rep, err)
		case 1, 3:
			rep, err := chk.Apply(u)
			report("apply", u, rep, err)
		default:
			pr := chk.Plan(u)
			fmt.Fprintf(&out, "plan %v decided=%s witnesses=%s global=%v relations=%v\n", u, decisionsText(pr.Decided), witnessesText(pr.Witnesses), pr.Global, pr.Relations)
			rep, err := decideOne(chk, pr, i%8 == 2)
			report("decide", u, rep, err)
		}
	}
	out.WriteString(statsText(chk.Stats()) + "\n")
	return out.String()
}

// untraced drops the lines only a traced run has.
func untraced(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.HasPrefix(line, "  ") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestProgramReportsUnchanged holds the decision programs to the loop
// they replaced: over the differential test's constraint shapes, a
// pinned-constant set, a mixed flat and recursive set, a set with remote
// relations and the ablation arms, every report (decisions, their order
// and phases, witnesses), every plan, the statistics and the trace event
// sequence equal the goldens recorded from that loop, traced and not.
func TestProgramReportsUnchanged(t *testing.T) {
	path := filepath.Join("testdata", "program_golden.txt")
	if *updateGolden {
		var all strings.Builder
		for _, sh := range goldenShapes {
			all.WriteString(runGoldenShape(t, sh, true))
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	golden := map[string]string{}
	for _, block := range strings.Split(string(raw), "== ")[1:] {
		golden[strings.Fields(block)[0]] = "== " + block
	}
	for _, sh := range goldenShapes {
		want, ok := golden[sh.name]
		if !ok {
			t.Errorf("no golden for shape %s", sh.name)
			continue
		}
		for _, traced := range []bool{true, false} {
			got, want := runGoldenShape(t, sh, traced), want
			if !traced {
				want = untraced(want)
			}
			if got != want {
				t.Errorf("%s traced=%v: diverges from the golden at %s", sh.name, traced, firstDiff(got, want))
			}
		}
	}
}

// firstDiff names the first line two renderings differ on.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("line %d: one is a prefix of the other (%d vs %d lines)", min(len(g), len(w))+1, len(g), len(w))
}

// TestWrongArityDoesNotPoison: a compiled check serves the tuples of the
// arity it was compiled for and no other. A malformed update — a delete
// is never arity-checked, an insert only against a relation the store
// already has — compiles to always-safe, and used to be served to every
// well-formed update of the pattern after it.
func TestWrongArityDoesNotPoison(t *testing.T) {
	for _, tc := range []struct {
		name, facts, constraint string
		malformed, wellFormed   store.Update
	}{
		{"delete", "dept(1). emp(7,1).", "panic :- emp(E,D) & not dept(D).",
			store.Del("dept", relation.Ints(1, 2)), store.Del("dept", relation.Ints(1))},
		{"insert into a relation the store lacks", "p(5).", "panic :- q(X) & p(X).",
			store.Ins("q", relation.Ints(5, 6)), store.Ins("q", relation.Ints(5))},
	} {
		for _, op := range []string{"check", "plan"} {
			c := newChecker(t, tc.facts, Options{})
			if err := c.AddConstraintSource("k", tc.constraint); err != nil {
				t.Fatal(err)
			}
			if op == "plan" {
				c.Plan(tc.malformed)
			} else if rep, err := c.Check(tc.malformed); err != nil || !rep.Applied {
				t.Fatalf("%s: malformed %v: %+v %v, want admitted (it matches no occurrence)", tc.name, tc.malformed, rep, err)
			}
			rep, err := c.Check(tc.wellFormed)
			if err != nil || rep.Applied || rep.Decisions[0].Verdict != Violated {
				t.Errorf("%s: %v after a malformed %s: %+v %v, want VIOLATED", tc.name, tc.wellFormed, op, rep, err)
			}
		}
	}
}

// TestRangeStepOtherArity: a relation a compiled check reads is absent
// when the check is compiled, and a commit then creates it with another
// arity. The check compiled at AddConstraint is the one that decides
// after the commit — nothing recompiles — and it answers as evaluation
// does: the relation reads empty to an atom of another arity, on every
// kind of read (probe, range, scan, negated, the certificate's existence
// probe) and in the global phase. Nothing panics.
func TestRangeStepOtherArity(t *testing.T) {
	const fi = "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."
	for _, tc := range []struct {
		name, facts, constraint string
		opts                    Options
		create, check           store.Update
	}{
		// +l(1,5) ranges over r's column 0; +r(3) over l's columns 0 and 1.
		{"range over r", "l(0,0).", fi, Options{}, store.Ins("r", relation.Ints(3, 4)), store.Ins("l", relation.Ints(1, 5))},
		{"range over l", "r(100).", fi, Options{}, store.Ins("l", relation.Ints(3)), store.Ins("r", relation.Ints(3))},
		{"scan", "r(100).", fi, Options{DisableIndexes: true}, store.Ins("l", relation.Ints(3)), store.Ins("r", relation.Ints(3))},
		{"probe", "p(0).", "panic :- p(X) & q(X).", Options{}, store.Ins("q", relation.Ints(1, 2)), store.Ins("p", relation.Ints(1))},
		{"negated", "zz(1).", "panic :- emp(E,D) & not dept(D).", Options{}, store.Ins("dept", relation.Strs("toy", "x")), store.Ins("emp", relation.Strs("ann", "toy"))},
		// The certificate of +emp probes emp, which the commit creates with
		// another arity: Check refuses the insert, Plan certifies nothing.
		{"certificate", "dept(toy).", "panic :- emp(E,D) & not dept(D).", Options{LocalRelations: []string{"emp"}},
			store.Ins("emp", relation.Strs("x", "toy", "1")), store.Ins("emp", relation.Strs("ann", "toy"))},
	} {
		c := newChecker(t, tc.facts, tc.opts)
		if err := c.AddConstraintSource("k", tc.constraint); err != nil {
			t.Fatal(err)
		}
		compiled, check := c.Stats().ResidualCompiled, c.programOf(tc.check).steps[0].check
		if check == nil || check.Outcome() != residual.ResidualGoal {
			t.Fatalf("%s: %v compiles to %v, want a residual goal", tc.name, tc.check, check)
		}
		if rep, err := c.Check(tc.check); err != nil || rep.Decisions[0].Phase != PhaseResidual {
			t.Fatalf("%s: %v before %v: %+v %v", tc.name, tc.check, tc.create, rep, err)
		}
		if rep, err := c.Apply(tc.create); err != nil || !rep.Applied {
			t.Fatalf("%s: %v: %+v %v", tc.name, tc.create, rep, err)
		}
		if got := c.programOf(tc.check).steps[0].check; got != check || c.Stats().ResidualCompiled != compiled {
			t.Errorf("%s: the commit of %v recompiled the check", tc.name, tc.create)
		}
		if tc.name == "certificate" {
			if _, err := c.Check(tc.check); err == nil {
				t.Errorf("%s: %v into emp/3 admitted", tc.name, tc.check)
			}
			if pr := c.Plan(tc.check); pr.Witnesses != nil {
				t.Errorf("%s: emp/3 certified %v: %+v", tc.name, tc.check, pr.Witnesses)
			}
			continue
		}
		post := c.DB().Clone()
		if err := tc.check.Apply(post); err != nil {
			t.Fatal(err)
		}
		want := violates(t, map[string]*ast.Program{"k": c.constraints[0].Prog}, post)
		if rep, err := c.Check(tc.check); err != nil || rep.Applied == want || rep.Decisions[0].Phase != PhaseResidual {
			t.Errorf("%s: %v after %v: %+v %v, evaluation says violated=%v", tc.name, tc.check, tc.create, rep, err, want)
		}
	}
	// The global phase over q stored with another arity skips its rows too.
	c := newChecker(t, "p(0). q(1,2).", Options{DisableResidual: true})
	if err := c.AddConstraintSource("k", "panic :- p(X) & q(X)."); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.Check(store.Ins("p", relation.Ints(1))); err != nil || !rep.Applied || rep.Decisions[0].Phase != PhaseGlobal {
		t.Errorf("q/2: +p(1) %+v %v, want admitted by the global phase", rep, err)
	}
}

// TestProgramInvalidation: a constraint set's checks are compiled when the
// set changes — by AddConstraint and RemoveConstraint — and by nothing
// else: not a decision, a data write, a plan, a rejection, nor a commit
// that creates a relation.
func TestProgramInvalidation(t *testing.T) {
	c := newChecker(t, "dept(toy). emp(x,toy,1).", Options{})
	if err := c.AddConstraintSource("cap", "panic :- emp(E,D,S) & S > 100."); err != nil {
		t.Fatal(err)
	}
	seq := int64(0)
	hire := func() {
		t.Helper()
		seq++
		if rep, err := c.Apply(store.Ins("emp", empTuple("e", "toy", seq))); err != nil || !rep.Applied {
			t.Fatalf("hire %d: %+v %v", seq, rep, err)
		}
	}
	expect := func(what string, want int64) {
		t.Helper()
		if got := c.Stats().ResidualCompiled; got != want {
			t.Errorf("%s: %d checks compiled, want %d", what, got, want)
		}
	}
	expect("AddConstraint", 1)
	hire()
	hire()
	if _, err := c.Apply(store.Del("emp", empTuple("e", "toy", 1))); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.Apply(store.Ins("emp", empTuple("e", "toy", 500))); err != nil || rep.Applied {
		t.Fatalf("over the cap: %+v %v", rep, err)
	}
	c.Plan(store.Ins("emp", empTuple("e", "toy", 2)))
	if rep, err := c.Apply(store.Ins("aux", relation.Ints(1))); err != nil || !rep.Applied {
		t.Fatalf("aux: %+v %v", rep, err)
	}
	hire()
	expect("decisions, data writes, a plan, a rejection and a relation-creating commit", 1)
	if err := c.AddConstraintSource("floor", "panic :- emp(E,D,S) & S < 0."); err != nil {
		t.Fatal(err)
	}
	expect("AddConstraint: cap's and floor's", 3)
	hire()
	c.RemoveConstraint("cap")
	expect("RemoveConstraint: floor's", 4)
	hire()
	expect("served again", 4)
}

// TestPinnedValuesCompileNothing: a constant of a constraint is a guard of
// its one compiled check, not a key: checks of fresh values at the
// constant's position compile nothing, and the guard decides them.
func TestPinnedValuesCompileNothing(t *testing.T) {
	c := newChecker(t, "cap(toy,100).", Options{})
	if err := c.AddConstraintSource("toy-cap", `panic :- emp(E,"toy",S) & cap("toy",M) & S > M.`); err != nil {
		t.Fatal(err)
	}
	compiled := c.Stats().ResidualCompiled
	for i := 0; i < 1000; i++ {
		u := store.Ins("emp", empTuple("e", fmt.Sprintf("d%d", i), 500))
		if rep, err := c.Check(u); err != nil || !rep.Applied || rep.Decisions[0].Phase != PhaseResidual {
			t.Fatalf("%v: %+v %v, want admitted by the compiled check", u, rep, err)
		}
	}
	if got := c.Stats().ResidualCompiled; got != compiled {
		t.Errorf("1000 checks of fresh values compiled %d checks", got-compiled)
	}
	for sal, ok := range map[int64]bool{50: true, 500: false} {
		if rep, err := c.Check(store.Ins("emp", empTuple("e", "toy", sal))); err != nil || rep.Applied != ok {
			t.Errorf("+emp(e,toy,%d): %+v %v, want applied=%v", sal, rep, err, ok)
		}
	}
}

// TestProgramConcurrentCompile: eight goroutines check the same patterns,
// served by the programs compiled when the constraints were added, while a
// ninth commits inserts that create relations. Every verdict equals the
// sequential arm's.
func TestProgramConcurrentCompile(t *testing.T) {
	build := func() *Checker {
		c := newChecker(t, "banned(1). banned(3). e(1,2). e(2,3). dept(1). emp(7,1).", Options{})
		for i := 0; i < 6; i++ {
			if err := c.AddConstraintSource(fmt.Sprintf("c%d", i), fmt.Sprintf("panic :- p%d(X) & banned(X).", i)); err != nil {
				t.Fatal(err)
			}
		}
		for name, src := range map[string]string{
			"acyclic": oracleConstraints[0].src,
			"hub":     "hub(X) :- e(X,Y) & e(X,Z) & Y < Z.\npanic :- hub(X) & banned(X).",
			"ri":      "panic :- emp(E,D) & not dept(D).",
		} {
			if err := c.AddConstraintSource(name, src); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	var checks []store.Update
	for i := 0; i < 6; i++ {
		rel := fmt.Sprintf("p%d", i)
		for v := int64(0); v < 4; v++ {
			checks = append(checks, store.Ins(rel, relation.Ints(v)), store.Del(rel, relation.Ints(v)))
		}
		checks = append(checks, store.Ins(rel, relation.Ints(1, 2)))
	}
	checks = append(checks,
		store.Ins("e", relation.Ints(3, 1)), store.Ins("e", relation.Ints(3, 4)), store.Ins("e", relation.Ints(1, 5)),
		store.Del("dept", relation.Ints(1)), store.Del("dept", relation.Ints(2)), store.Del("dept", relation.Ints(1, 2)),
		store.Ins("emp", relation.Ints(8, 2)), store.Ins("emp", relation.Ints(8, 1)), store.Del("e", relation.Ints(1, 2)))
	seq := build()
	want := make([]bool, len(checks))
	for i, u := range checks {
		rep, err := seq.Check(u)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = rep.Applied
	}
	c := build()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range checks {
				i := (n + g*7) % len(checks)
				rep, err := c.Check(checks[i])
				if err != nil || rep.Applied != want[i] {
					t.Errorf("goroutine %d: %v: applied=%v err=%v, sequentially %v", g, checks[i], rep.Applied, err, want[i])
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 40; j++ {
			if rep, err := c.Apply(store.Ins(fmt.Sprintf("fresh%d", j), relation.Ints(int64(j)))); err != nil || !rep.Applied {
				t.Errorf("commit %d: %+v %v", j, rep, err)
			}
		}
	}()
	wg.Wait()
}

// flatChecker holds the four flat constraints of the benchmark's
// embed_flat workload over a small employee database.
func flatChecker(t *testing.T, opts Options) *Checker {
	t.Helper()
	db := store.New()
	if err := workload.EmployeeDB(rand.New(rand.NewSource(1)), db, 4, 40); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"l(3,6).", "r(100)."} {
		if err := db.LoadFacts(parser.MustParseProgram(f)); err != nil {
			t.Fatal(err)
		}
	}
	c := New(db, opts)
	std := workload.StandardEmployeeConstraints()
	for _, k := range [][2]string{
		{"forbidden-interval", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."},
		{"referential", std["referential"]}, {"range-low", std["range-low"]}, {"range-high", std["range-high"]},
	} {
		if err := c.AddConstraintSource(k[0], k[1]); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestFlatDecisionAllocs is the gain without a clock: a decision whose
// program has only compiled checks allocates nothing — its report is the
// program's, and there is no per-decision scaffolding, closure or
// goroutine — and an admitted one allocates only what the store write
// keeps.
func TestFlatDecisionAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	hire := store.Ins("emp", empTuple("new", "dept01", 25))
	// mallocs counts the objects one Check of u allocates, run with the
	// evaluator pool emptied (a pool is cleared over two collections): the
	// one-time cost of a pooled evaluator and its scratch, which any
	// decision may pay when the pool misses.
	mallocs := func(c *Checker, u store.Update) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		rep, err := c.Check(u)
		runtime.ReadMemStats(&after)
		if err != nil || !rep.Applied {
			t.Fatalf("%v: %+v %v", u, rep, err)
		}
		return after.Mallocs - before.Mallocs
	}
	// The first decision of each pattern costs what a warm one costs over
	// an empty pool: every check was compiled by AddConstraint. (The
	// indexes a check probes are the relation layer's to build on first
	// use: warmed on a copy.)
	for _, u := range []store.Update{hire, store.Ins("r", relation.Ints(50)), store.Ins("l", relation.Ints(200, 300))} {
		c := flatChecker(t, Options{})
		warm := New(c.DB(), Options{})
		for _, k := range c.constraints {
			if err := warm.AddConstraint(k.Name, k.Prog); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := warm.Check(u); err != nil {
			t.Fatal(err)
		}
		if miss, first := mallocs(warm, u), mallocs(c, u); first > miss {
			t.Errorf("the first Check of %v allocates %d objects, a warm one %d over an empty evaluator pool", u, first, miss)
		}
	}
	// The forbidden-interval checks range over the other relation's ordered
	// index: an r insert over l's two columns, an l insert over r's one.
	c := flatChecker(t, Options{})
	for _, u := range []store.Update{hire, store.Ins("r", relation.Ints(50)), store.Ins("l", relation.Ints(200, 300))} {
		if rep, err := c.Check(u); err != nil || !rep.Applied {
			t.Fatalf("%v: %+v %v", u, rep, err)
		}
		if got := testing.AllocsPerRun(200, func() { _, _ = c.Check(u) }); got != 0 {
			t.Errorf("a warm Check of %v allocates %v objects, want 0", u, got)
		}
	}
	// An Apply and its undo cost the two store writes and nothing more;
	// the writes alone are measured on the same store.
	fire := store.Del("emp", hire.Tuple)
	writes := testing.AllocsPerRun(200, func() {
		_, _ = c.DB().Insert("emp", hire.Tuple)
		c.DB().Delete("emp", hire.Tuple)
	})
	pair := testing.AllocsPerRun(200, func() {
		_, _ = c.Apply(hire)
		_, _ = c.Apply(fire)
	})
	t.Logf("apply+undo %v, the two writes %v", pair, writes)
	if pair > writes {
		t.Errorf("Apply and undo allocate %v objects, the two store writes %v", pair, writes)
	}
}

// TestReportSharedWithProgram: a report shares its Decisions with the
// program of its pattern until a decision patches them, so nothing one
// report goes through may reach another — not an append by the caller, not
// a rejection of the same pattern, not a concurrent decision.
func TestReportSharedWithProgram(t *testing.T) {
	// Two updates of one pattern: an admitted hire and one the
	// referential constraint rejects.
	updates := []store.Update{
		store.Ins("emp", empTuple("new", "dept01", 25)),
		store.Ins("emp", empTuple("new", "nodept", 25)),
	}
	const hire, bad = 0, 1
	show := func(rep Report) string { return fmt.Sprint(rep.Applied, rep.Decisions, rep.Witnesses) }
	seq := flatChecker(t, Options{})
	var want [2]string
	for i, u := range updates {
		rep, err := seq.Check(u)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = show(rep)
	}
	if want[hire] == want[bad] {
		t.Fatalf("the violating update decides like the admitted one: %s", want[hire])
	}
	c := flatChecker(t, Options{})
	check := func(i int) Report {
		t.Helper()
		rep, err := c.Check(updates[i])
		if err != nil {
			t.Fatal(err)
		}
		if got := show(rep); got != want[i] {
			t.Fatalf("%v: %s, sequentially %s", updates[i], got, want[i])
		}
		return rep
	}
	first := check(hire)
	grown := append(first.Decisions, Decision{Constraint: "appended", Verdict: Violated})
	grown[0].Verdict = Violated
	rejected := check(bad)
	check(hire)
	for i, rep := range []Report{first, rejected} {
		if got := show(rep); got != want[i] {
			t.Errorf("a report changed under later decisions: %s, was %s", got, want[i])
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				rep, err := c.Check(updates[i])
				if got := show(rep); err != nil || got != want[i] {
					t.Errorf("%v: %s %v, sequentially %s", updates[i], got, err, want[i])
					return
				}
			}
		}(g % 2)
	}
	wg.Wait()
}

// TestFlatDecisionStartsNoGoroutine: a decision runs on the caller's
// goroutine, a flat one included.
func TestFlatDecisionStartsNoGoroutine(t *testing.T) {
	c := flatChecker(t, Options{})
	hire := store.Ins("emp", empTuple("new", "dept01", 25))
	base := runtime.NumGoroutine()
	// A sampler can miss a goroutine, never invent one: it sees itself and
	// the decisions' caller, and a decision that started one would add to
	// that.
	stop, done := make(chan struct{}), make(chan int)
	go func() {
		most := 0
		for {
			select {
			case <-stop:
				done <- most
				return
			default:
				if n := runtime.NumGoroutine(); n > most {
					most = n
				}
				runtime.Gosched()
			}
		}
	}()
	for i := 0; i < 3000; i++ {
		if rep, err := c.Check(hire); err != nil || !rep.Applied {
			t.Fatalf("%+v %v", rep, err)
		}
	}
	close(stop)
	if most := <-done; most > base+1 {
		t.Errorf("flat decisions ran beside %d goroutines, want none but the sampler", most-base)
	}
}
