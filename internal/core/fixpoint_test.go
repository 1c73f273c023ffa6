package core

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/eval/naive"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/store"
)

// missingFrom lists the tuples of a that b lacks, in a canonical order.
func missingFrom(a, b []relation.Tuple) string {
	in := make(map[string]bool, len(b))
	for _, tu := range b {
		in[tu.Key()] = true
	}
	var out []string
	for _, tu := range a {
		if !in[tu.Key()] {
			out = append(out, tu.String())
		}
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// checkKept compares every kept fixpoint that reads as valid with a
// fresh evaluation of its constraint over the current store.
func checkKept(t *testing.T, c *Checker) {
	t.Helper()
	for _, k := range c.constraints {
		f := k.fix.Load()
		if f == nil || !f.Valid() {
			continue
		}
		res, err := eval.Eval(k.Prog, c.db.Clone())
		if err != nil {
			t.Fatal(err)
		}
		for pred := range k.Prog.IDBPreds() {
			kept := f.Tuples(pred)
			if kept == nil {
				continue // pruned away: the goal does not depend on it
			}
			fresh := res.Tuples(pred)
			if lost, extra := missingFrom(fresh, kept), missingFrom(kept, fresh); lost != "" || extra != "" || len(kept) != len(fresh) {
				t.Fatalf("%s: kept %s has %d tuples, a fresh evaluation %d; kept lacks {%s}, fresh lacks {%s}\ndb:\n%s",
					k.Name, pred, len(kept), len(fresh), lost, extra, c.db)
			}
		}
	}
}

// chainChecker is the benchmark's recursive shape in small: acyclicity
// over an edge chain 0→1→…→n-1, plus a helper-predicate constraint. The
// helper one is a compiled check of its expansion; under DisableResidual
// it keeps a fixpoint too, beside acyclic's.
func chainChecker(t testing.TB, n int, opts Options) *Checker {
	t.Helper()
	db := store.New()
	for i := int64(0); i < int64(n)-1; i++ {
		if _, err := db.Insert("edge", relation.Ints(i, i+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Insert("banned", relation.Ints(int64(n)+1000)); err != nil {
		t.Fatal(err)
	}
	c := New(db, opts)
	for _, k := range []struct{ name, src string }{
		{"acyclic", "reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- reach(X,Z) & edge(Z,Y).\npanic :- reach(X,X)."},
		{"banned-hub", "hub(X) :- edge(X,Y) & edge(X,Z) & Y < Z.\npanic :- hub(X) & banned(X)."},
	} {
		if err := c.AddConstraintSource(k.name, k.src); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// Checks write nothing — a polarity-decided delete check included — so
// they cost no rebuild; the writes the checker cannot account for must.
// Both constraints keep a fixpoint: residual dispatch is off.
func TestKeptFixpointVersionRule(t *testing.T) {
	c := chainChecker(t, 16, Options{DisableResidual: true})
	check := func(u store.Update, admit bool) {
		t.Helper()
		rep, err := c.Check(u)
		if err != nil || rep.Applied != admit {
			t.Fatalf("check %v: applied=%v err=%v, want applied=%v", u, rep.Applied, err, admit)
		}
		checkKept(t, c)
	}
	if s := c.Stats(); s.FixpointRebuilds != 0 {
		t.Fatalf("AddConstraint built a fixpoint: %+v", s)
	}
	check(store.Ins("edge", relation.Ints(2, 9)), true) // builds both
	check(store.Ins("edge", relation.Ints(9, 2)), false)
	check(store.Del("edge", relation.Ints(4, 5)), true) // polarity
	check(store.Ins("edge", relation.Ints(3, 3)), false)
	check(store.Ins("edge", relation.Ints(0, 1)), true)   // duplicate insert
	check(store.Del("edge", relation.Ints(70, 71)), true) // absent delete
	check(store.Ins("edge", relation.Ints(1, 12)), true)
	if s := c.Stats(); s.FixpointRebuilds != 2 || s.FixpointDrops != 0 || s.FixpointHits != 8 {
		t.Fatalf("after checks only: %+v, want 2 rebuilds, 8 hits, no drops", s)
	}
	// A committed insert folds what it derives.
	if rep, err := c.Apply(store.Ins("edge", relation.Ints(5, 11))); err != nil || !rep.Applied {
		t.Fatalf("apply: %+v %v", rep, err)
	}
	checkKept(t, c)
	check(store.Ins("edge", relation.Ints(11, 5)), false)
	if s := c.Stats(); s.FixpointRebuilds != 2 || s.FixpointDrops != 0 {
		t.Fatalf("a folded insert cost a rebuild: %+v", s)
	}
	// Swapping the whole of edge for its own contents (a mirror refresh
	// that finds nothing new) moves no data version: the fixpoints stay.
	if err := c.DB().ReplaceRange("edge", 2, relation.Range{}, relation.Rows(c.DB().Relation("edge").Tuples())); err != nil {
		t.Fatal(err)
	}
	check(store.Ins("edge", relation.Ints(1, 7)), true)
	if s := c.Stats(); s.FixpointRebuilds != 2 || s.FixpointDrops != 0 {
		t.Fatalf("a swap that changed nothing cost a rebuild: %+v", s)
	}
	// A committed delete, a foreign swap that changes a tuple and a direct
	// store write each drop the fixpoints that read the relation.
	for i, foreign := range []func(){
		func() {
			if rep, err := c.Apply(store.Del("edge", relation.Ints(5, 11))); err != nil || !rep.Applied {
				t.Fatalf("delete: %+v %v", rep, err)
			}
		},
		func() {
			// Kept fixpoints go by the data version, which the swap moves.
			ts := append(c.DB().Relation("edge").Tuples(), relation.Ints(20, 21))
			if err := c.DB().ReplaceRange("edge", 2, relation.Range{}, relation.Rows(ts)); err != nil {
				t.Fatal(err)
			}
		},
		func() { c.DB().Delete("edge", relation.Ints(14, 15)) },
	} {
		before := c.Stats()
		foreign()
		check(store.Ins("edge", relation.Ints(1, 7)), true)
		if s := c.Stats(); s.FixpointDrops != before.FixpointDrops+2 || s.FixpointRebuilds != before.FixpointRebuilds+2 {
			t.Fatalf("foreign write %d: %+v after %+v, want both fixpoints dropped and rebuilt", i, s, before)
		}
	}
	// Changing the constraint set drops them all.
	before := c.Stats()
	if !c.RemoveConstraint("banned-hub") {
		t.Fatal("remove failed")
	}
	if s := c.Stats(); s.FixpointDrops != before.FixpointDrops+2 {
		t.Fatalf("RemoveConstraint: %+v after %+v", s, before)
	}
	check(store.Ins("edge", relation.Ints(8, 1)), false)
	c.ResetStats()
	if s := c.Stats(); s.FixpointHits+s.FixpointRebuilds+s.FixpointDrops != 0 {
		t.Fatalf("ResetStats left fixpoint counters: %+v", s)
	}
}

// The trace says why a global decision was cheap or dear, and the
// registry counts the same events. Residual dispatch is off, so both
// constraints keep a fixpoint.
func TestGlobalPhaseTraceCacheStatus(t *testing.T) {
	buf := obs.NewBufferTracer(4)
	reg := obs.NewRegistry()
	c := chainChecker(t, 8, Options{Tracer: buf, Metrics: reg, DisableResidual: true})
	globalCache := func(u store.Update) []string {
		t.Helper()
		if _, err := c.Check(u); err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range buf.Last() {
			if e.Kind == obs.KindPhase && e.Phase == PhaseGlobal.String() {
				out = append(out, e.Constraint+"="+e.Cache)
			}
		}
		return out
	}
	for _, step := range []struct {
		u    store.Update
		want string
	}{
		{store.Ins("edge", relation.Ints(1, 5)), "acyclic=miss banned-hub=miss"},
		{store.Ins("edge", relation.Ints(5, 1)), "acyclic=hit banned-hub=hit"},
		// banned reaches only banned-hub's panic.
		{store.Ins("banned", relation.Ints(99)), "banned-hub=hit"},
	} {
		if got := strings.Join(globalCache(step.u), " "); got != step.want {
			t.Errorf("%v: global events %q, want %q", step.u, got, step.want)
		}
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	for _, want := range []string{
		"cc_checker_fixpoint_hits_total 3",
		"cc_checker_fixpoint_rebuilds_total 2",
		"cc_checker_fixpoint_drops_total 0",
	} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("registry missing %q:\n%s", want, sb.String())
		}
	}
}

// An insert that can take derived facts away — the relation is read
// under negation — must be evaluated from scratch, and must not leave a
// stale fixpoint behind for the inserts that can use one.
func TestKeptFixpointMixedPolarityFallsBack(t *testing.T) {
	c := newChecker(t, "node(1). node(2). edge(1,2).", Options{})
	// edge reaches panic positively (through linked) and negatively.
	if err := c.AddConstraintSource("mixed",
		"linked(X) :- edge(X,Y).\nlinked(Y) :- edge(X,Y).\nlone(X) :- node(X) & not linked(X).\npanic :- lone(X) & edge(X,X)."); err != nil {
		t.Fatal(err)
	}
	apply := func(u store.Update, admit bool) {
		t.Helper()
		rep, err := c.Apply(u)
		if err != nil || rep.Applied != admit {
			t.Fatalf("%v: applied=%v err=%v", u, rep.Applied, err)
		}
		for _, d := range rep.Decisions {
			if d.Phase != PhaseGlobal {
				t.Fatalf("%v decided by %v, want global", u, d.Phase)
			}
		}
		checkKept(t, c)
	}
	apply(store.Ins("edge", relation.Ints(2, 1)), true)
	if s := c.Stats(); s.FixpointHits+s.FixpointRebuilds != 0 {
		t.Fatalf("a mixed-polarity insert used a fixpoint: %+v", s)
	}
	apply(store.Ins("node", relation.Ints(3)), true) // monotone: builds
	apply(store.Ins("edge", relation.Ints(3, 2)), true)
	apply(store.Ins("node", relation.Ints(4)), true) // edge moved since: rebuilt, not trusted
	if s := c.Stats(); s.FixpointRebuilds != 2 || s.FixpointDrops != 1 {
		t.Fatalf("%+v, want 2 rebuilds around 1 drop", s)
	}
}

// The inserted tuple is not in the store while its insert is decided, so
// a rule that reads the inserted relation twice must see it at the other
// literal as well. hub pairs the new edge with a stored one, in either
// order; back needs the new edge at both literals at once — edge(7,7) is
// its own way back — which only the pending read of the non-delta literal
// supplies. Decided on the kept fixpoints with residual dispatch off, and
// by the compiled checks of the expansions — a self-join of edge, each
// occurrence its own disjunct — with it on; checked against a fresh
// evaluation of the updated store.
func TestKeptFixpointSelfJoinInsert(t *testing.T) {
	for _, arm := range []struct {
		opts   Options
		phase  Phase
		builds int64 // fixpoints kept from the first decision on
	}{
		{Options{DisableResidual: true}, PhaseGlobal, 2},
		{Options{}, PhaseResidual, 0},
	} {
		c := newChecker(t, "edge(1,5). banned(1). banned(7). banned(8).", arm.opts)
		for name, src := range map[string]string{
			"banned-hub":  "hub(X) :- edge(X,Y) & edge(X,Z) & Y < Z.\npanic :- hub(X) & banned(X).",
			"banned-back": "back(X) :- edge(X,Y) & edge(Y,X).\npanic :- back(X) & banned(X).",
		} {
			if err := c.AddConstraintSource(name, src); err != nil {
				t.Fatal(err)
			}
		}
		rejected := 0
		for _, u := range []store.Update{
			store.Ins("edge", relation.Ints(2, 3)), // builds the fixpoints
			store.Ins("edge", relation.Ints(1, 9)), // hub: new edge is the larger of the pair
			store.Ins("edge", relation.Ints(1, 2)), // … the smaller
			store.Ins("edge", relation.Ints(1, 5)), // duplicate: no pair with itself
			store.Ins("edge", relation.Ints(7, 7)), // back: the new edge twice
			store.Ins("edge", relation.Ints(3, 3)), // … on a node not banned
			store.Ins("edge", relation.Ints(8, 2)), // first out-edge of a banned node
			store.Ins("edge", relation.Ints(8, 4)), // second: a hub
			store.Ins("edge", relation.Ints(2, 8)), // the way back to 8
		} {
			post := c.DB().Clone()
			if err := u.Apply(post); err != nil {
				t.Fatal(err)
			}
			bad := false
			for _, k := range c.constraints {
				v, err := eval.PanicHolds(k.Prog, post.Clone())
				if err != nil {
					t.Fatal(err)
				}
				bad = bad || v
			}
			if bad {
				rejected++
			}
			for _, decide := range []func(store.Update) (Report, error){c.Check, c.Apply} {
				rep, err := decide(u)
				if err != nil || rep.Applied == bad {
					t.Fatalf("%v: %+v err=%v, fresh evaluation says violated=%v", u, rep, err, bad)
				}
				for _, d := range rep.Decisions {
					if d.Phase != arm.phase {
						t.Fatalf("%v: %s decided by %v, want %v", u, d.Constraint, d.Phase, arm.phase)
					}
				}
				checkKept(t, c)
			}
		}
		if s := c.Stats(); rejected != 5 || s.FixpointRebuilds != arm.builds || s.FixpointDrops != 0 {
			t.Fatalf("%d rejected, %+v; want 5, and %d fixpoints kept from the first decision on", rejected, s, arm.builds)
		}
	}
}

// A warm edge check must stay on the kept fixpoints and allocate nothing
// per row — no key rendered, no value interned or materialized: the
// dynamic steps' outcomes are all it costs (the report's Decisions are
// the program's, unpatched when phase 4 decides). A
// path that quietly fell back to rebuilding the chain's closure would
// allocate thousands of times per check.
func TestWarmGlobalCheckAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	c := chainChecker(t, 64, Options{})
	for _, u := range []store.Update{store.Ins("edge", relation.Ints(8, 41)), store.Ins("edge", relation.Ints(32, 45))} {
		if rep, err := c.Check(u); err != nil || !rep.Applied {
			t.Fatalf("%+v %v", rep, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if rep, err := c.Check(u); err != nil || !rep.Applied {
				t.Fatalf("%+v %v", rep, err)
			}
		})
		if allocs != 0 {
			t.Errorf("a warm check of %v allocates %.0f times, want 0 (the dynamic steps' outcomes fill the caller's array)", u, allocs)
		}
	}
	// acyclic's fixpoint, built once; banned-hub is a compiled check.
	if s := c.Stats(); s.FixpointRebuilds != 1 || s.ByPhase[PhaseResidual] != s.Updates {
		t.Fatalf("warm checks rebuilt: %+v", s)
	}
}

// TestLogChurnAcrossCollectionsAllocs: a warm checker over the chain's
// constraints (embed_recursive's) applies 32 inserts into a relation no
// constraint reads and deletes them again, cycle after cycle, with edge
// checks between — kept-fixpoint and compiled ones, admitted and
// rejected — and a collection after every cycle. It allocates the rows
// it stores and nothing more: the relation compacts in the room it
// refills, and the evaluators the checks borrow keep their scratch
// across the collections. The bytes come from runtime.MemStats:
// testing.AllocsPerRun counts whole objects per run and would hide a
// reallocation every few dozen deletes.
func TestLogChurnAcrossCollectionsAllocs(t *testing.T) {
	const most = 32
	c := chainChecker(t, 64, Options{})
	checks := []struct {
		u     store.Update
		admit bool
	}{
		{store.Ins("edge", relation.Ints(8, 41)), true},
		{store.Ins("edge", relation.Ints(43, 4)), false},
		{store.Del("edge", relation.Ints(20, 21)), true},
	}
	// Two cycles' worth of log tuples, built (and their values interned)
	// before anything is counted.
	logs := make([]store.Update, 2*most)
	for i := range logs {
		logs[i] = store.Ins("log", relation.Ints(int64(i)))
	}
	rng := rand.New(rand.NewSource(51))
	order := make([]int, most)
	for i := range order {
		order[i] = i
	}
	round := 0
	cycle := func() {
		base := round % 2 * most
		round++
		for i := range most {
			if _, err := c.Apply(logs[base+i]); err != nil {
				t.Fatal(err)
			}
			if k := checks[i%len(checks)]; i%4 == 0 {
				if rep, err := c.Check(k.u); err != nil || rep.Applied != k.admit {
					t.Fatalf("%v: %+v %v", k.u, rep, err)
				}
			}
		}
		rng.Shuffle(most, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			u := logs[base+i]
			if _, err := c.Apply(store.Del("log", u.Tuple)); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
	}
	for range 8 {
		cycle()
	}
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	// window returns the least bytes of three windows of cycles calls of
	// f: the runtime's own work only ever adds bytes (see
	// TestFlatDecisionAllocs).
	const cycles, rowBytes = 12, most * 4
	window := func(f func()) uint64 {
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range cycles {
				f()
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least
	}
	// A collection has the runtime allocate of its own accord (the unique
	// package's cleanup, say), so the collections alone are the floor. A
	// stored log row is one 4-byte handle, packed four to a 16-byte block.
	floor, got := window(func() { runtime.GC() }), window(cycle)
	if limit := floor + cycles*rowBytes + 16; got > limit {
		t.Errorf("%d cycles of %d log inserts and deletes allocated %d B, want at most %d B (the stored rows, %d B, and the collections' own %d B)",
			cycles, most, got, limit, cycles*rowBytes, floor)
	}
}

// orderDomain is a value domain in ascending value order — rationals,
// an integer, strings — that the intern pool is first shown in
// descending order, so its handles run against its values: an order
// comparison decided on handles gets every pair of it backwards.
var orderDomain = func() []ast.Value {
	dom := []ast.Value{ast.Rat(1, 30011), ast.Rat(30011, 7), ast.Int(30013), ast.Str("ord-a"), ast.Str("ord-b")}
	for i := len(dom) - 1; i >= 0; i-- {
		relation.Intern(dom[i])
	}
	return dom
}()

// TestKeptFixpointOrderFromValues: order comparisons between a register
// bound from kept rows and one bound from stored rows (or the inserted
// tuple) decide by the values, never by the handles they are held as. A
// stream of edge inserts over orderDomain is decided on kept fixpoints
// and held to full evaluation and to a fresh fixpoint after every step.
func TestKeptFixpointOrderFromValues(t *testing.T) {
	for i := 1; i < len(orderDomain); i++ {
		if relation.Intern(orderDomain[i-1]) <= relation.Intern(orderDomain[i]) {
			t.Fatalf("premise: %v was interned before %v", orderDomain[i-1], orderDomain[i])
		}
	}
	var hits, rejected, admitted int64
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pick := func() ast.Value { return orderDomain[rng.Intn(len(orderDomain))] }
		db := store.New()
		if _, err := db.Insert("cap", relation.TupleOf(orderDomain[3])); err != nil {
			t.Fatal(err)
		}
		db.MustEnsure("edge", 2)
		c := New(db, Options{})
		for name, src := range map[string]string{
			// up's second rule compares X, bound from kept up rows, with Z,
			// bound from edge; panic compares up's Y with cap's L.
			"climb": "up(X,Y) :- edge(X,Y) & X < Y.\nup(X,Z) :- up(X,Y) & edge(Y,Z) & X < Z.\npanic :- up(X,Y) & cap(L) & X <= L & L <= Y & X < L.",
			"dip":   "down(X,Y) :- edge(X,Y) & Y <= X.\ndown(X,Z) :- down(X,Y) & edge(Y,Z) & Z < Y.\npanic :- down(X,Y) & down(Y,Z) & Z < X & X < Y.",
		} {
			if err := c.AddConstraintSource(name, src); err != nil {
				t.Fatal(err)
			}
		}
		for step := 0; step < 25; step++ {
			u := store.Ins("edge", relation.TupleOf(pick(), pick()))
			post := c.DB().Clone()
			if err := u.Apply(post); err != nil {
				t.Fatal(err)
			}
			bad := false
			for _, k := range c.constraints {
				v, err := naive.Holds(k.Prog, post, ast.PanicPred)
				if err != nil {
					t.Fatal(err)
				}
				bad = bad || v
			}
			decide := c.Check
			if step%2 == 1 {
				decide = c.Apply
			}
			rep, err := decide(u)
			if err != nil || rep.Applied == bad {
				t.Fatalf("seed %d step %d %v: %+v err=%v, grounding says violated=%v\ndb:\n%s", seed, step, u, rep, err, bad, c.DB())
			}
			if bad {
				rejected++
			} else {
				admitted++
			}
			checkKept(t, c)
		}
		hits += c.Stats().FixpointHits
	}
	t.Logf("%d fixpoint hits, %d rejected, %d admitted", hits, rejected, admitted)
	if hits == 0 || rejected == 0 || admitted == 0 {
		t.Fatalf("the stream did not exercise the kept fixpoints: %d hits, %d rejected, %d admitted", hits, rejected, admitted)
	}
}

// Concurrent appliers under the scheduler's discipline (run under
// -race): edge inserts conflict with each other and with edge deletes,
// log inserts with nothing, so fixpoint use, settling and the version
// accounting all overlap with unrelated applies.
func TestKeptFixpointConcurrentAppliers(t *testing.T) {
	const n = 24
	c := chainChecker(t, n, Options{})
	ref := chainChecker(t, n, Options{DisableIndexes: true})
	var us []store.Update
	for i := int64(0); i < 120; i++ {
		switch i % 4 {
		case 0:
			us = append(us, store.Ins("edge", relation.Ints(i%n, (i*7+3)%n)))
		case 1:
			us = append(us, store.Ins("log", relation.Ints(i)))
		case 2:
			us = append(us, store.Del("edge", relation.Ints(i%n, i%n+1)))
		default:
			us = append(us, store.Ins("log", relation.Ints(-i)))
		}
	}
	got := make([]bool, len(us))
	s := sched.New(sched.Options{Workers: 8})
	ix := c.Footprints()
	var mu sync.Mutex
	for i, u := range us {
		i, u := i, u
		// Every other edge op is a check — its footprint the reads alone, as
		// serve submits it — so checks overlap each other between the applies.
		op, fp := c.Apply, ix.Update(u)
		if i%8 < 4 {
			op, fp.Writes = c.Check, nil
		}
		s.Submit(fp, func(sched.Info) {
			rep, err := op(u)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			got[i] = rep.Applied
			mu.Unlock()
		})
	}
	s.Close()
	for i, u := range us {
		op := ref.Apply
		if i%8 < 4 {
			op = ref.Check
		}
		rep, err := op(u)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Applied != got[i] {
			t.Fatalf("op %d (%v): concurrent applied=%v, sequential reference %v", i, u, got[i], rep.Applied)
		}
	}
	if a, b := c.DB().Dump(), ref.DB().Dump(); sortedLines(a) != sortedLines(b) {
		t.Fatalf("final stores differ:\n%s\nvs\n%s", a, b)
	}
	checkKept(t, c)
	if st := c.Stats(); st.FixpointHits == 0 {
		t.Fatalf("no decision used a kept fixpoint: %+v", st)
	}
}

func sortedLines(s string) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// Checks on a relation no constraint mentions conflict with nothing under
// the scheduler's discipline, so they overlap an edge apply anywhere
// between its seeded rounds and its fold. They must leave the overlay it
// opened alone: with the non-linear rule a lost reach fact is never
// re-derived from the live edges, and the closing edge would be admitted.
func TestKeptFixpointUnrelatedChecksLeaveOverlay(t *testing.T) {
	const n = 40
	for _, src := range []string{
		"reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- reach(X,Z) & reach(Z,Y).\npanic :- reach(X,X).",
		"reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- reach(X,Z) & edge(Z,Y).\npanic :- reach(X,X).",
	} {
		c := newChecker(t, "edge(0,1).", Options{})
		if err := c.AddConstraintSource("acyclic", src); err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := int64(0); g < 4; g++ {
			wg.Add(1)
			go func(g int64) {
				defer wg.Done()
				for i := int64(0); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if rep, err := c.Check(store.Ins("log", relation.Ints(g, i))); err != nil || !rep.Applied {
						t.Errorf("check log: %+v %v", rep, err)
						return
					}
				}
			}(g)
		}
		for i := int64(1); i < n; i++ {
			if rep, err := c.Apply(store.Ins("edge", relation.Ints(i, i+1))); err != nil || !rep.Applied {
				t.Fatalf("edge %d: %+v %v", i, rep, err)
			}
			checkKept(t, c)
			if rep, err := c.Check(store.Ins("edge", relation.Ints(i+1, 0))); err != nil || rep.Applied {
				t.Fatalf("closing edge %d->0: applied=%v err=%v, want rejected", i+1, rep.Applied, err)
			}
		}
		if rep, err := c.Apply(store.Ins("edge", relation.Ints(n, 1))); err != nil || rep.Applied {
			t.Fatalf("closing edge admitted: %+v %v", rep, err)
		}
		close(stop)
		wg.Wait()
		checkKept(t, c)
		if s := c.Stats(); s.FixpointRebuilds != 1 || s.FixpointDrops != 0 {
			t.Fatalf("%+v, want the one build and no drop", s)
		}
	}
}

// Checks have no write in their footprint, so checks of inserts into one
// relation overlap on the fixpoint that decides them (run under -race).
// Each must see only what its own tuple derives: edge(30,40) and
// edge(40,30) are admissible alone and close a cycle only together, and
// a check that discards its rows must not take another's with them.
func TestKeptFixpointConcurrentChecks(t *testing.T) {
	const n = 16
	c := chainChecker(t, n, Options{DisableResidual: true}) // two kept fixpoints
	us := []store.Update{
		store.Ins("edge", relation.Ints(30, 40)),
		store.Ins("edge", relation.Ints(40, 30)),
		store.Ins("edge", relation.Ints(n-1, 0)), // closes the chain
		store.Ins("edge", relation.Ints(3, 9)),
	}
	want := []bool{true, true, false, true}
	for i, u := range us { // builds the fixpoints; the sequential verdicts
		if rep, err := c.Check(u); err != nil || rep.Applied != want[i] {
			t.Fatalf("sequential check %v: applied=%v err=%v, want %v", u, rep.Applied, err, want[i])
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := (g + i) % len(us)
				if rep, err := c.Check(us[k]); err != nil || rep.Applied != want[k] {
					t.Errorf("concurrent check %v: applied=%v err=%v, want %v", us[k], rep.Applied, err, want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	checkKept(t, c)
	if s := c.Stats(); s.FixpointRebuilds != 2 || s.FixpointDrops != 0 {
		t.Fatalf("%+v, want the two builds and no drop", s)
	}
}

// A store that already violates the constraint (a foreign write got it
// there) breaks the premise of the delta rounds: the build stops at the
// first panic fact, nothing is kept, and every decision is evaluated from
// scratch until the violation is gone.
func TestKeptFixpointNotBuiltOnViolatedStore(t *testing.T) {
	c := chainChecker(t, 8, Options{DisableResidual: true})
	if _, err := c.DB().Insert("edge", relation.Ints(7, 0)); err != nil { // closes the chain
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if rep, err := c.Check(store.Ins("edge", relation.Ints(2, 5))); err != nil || rep.Applied {
			t.Fatalf("check on a cyclic store: %+v %v, want rejected", rep, err)
		}
	}
	// banned-hub holds on this store and keeps its fixpoint; acyclic must not.
	if s := c.Stats(); s.FixpointRebuilds != 1 || s.FixpointHits != 1 {
		t.Fatalf("%+v, want only banned-hub's fixpoint built", s)
	}
	c.DB().Delete("edge", relation.Ints(7, 0))
	if rep, err := c.Check(store.Ins("edge", relation.Ints(2, 5))); err != nil || !rep.Applied {
		t.Fatalf("check after the repair: %+v %v", rep, err)
	}
	checkKept(t, c)
	if s := c.Stats(); s.FixpointRebuilds != 3 || s.FixpointDrops != 1 {
		t.Fatalf("%+v, want acyclic built and banned-hub rebuilt after the repair", s)
	}
}
