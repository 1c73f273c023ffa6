package sched_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/store"
)

// These tests are sched's external package: the footprints they schedule
// are a core.Checker's (core.Footprints), which imports sched.

// wr is the write of one tuple, as core.Footprints.Update builds it.
func wr(rel string, vals ...ast.Value) sched.Write {
	hs := make([]relation.Handle, len(vals))
	for i, v := range vals {
		hs[i] = relation.Intern(v)
	}
	return sched.Write{Relation: rel, FP: relation.FingerprintHandles(hs), Cols: hs}
}

// whole and keyed are the two shapes of a read claim.
func whole(rel string) sched.Read { return sched.Read{Relation: rel} }

func keyed(rel string, col int, v ast.Value) sched.Read {
	return sched.Read{Relation: rel, Keyed: true, Col: col, Key: relation.Intern(v)}
}

func fpOf(w sched.Write, reads ...sched.Read) sched.Footprint {
	return sched.Footprint{Writes: []sched.Write{w}, Reads: reads}
}

// TestFootprintConflicts is the directed table of the conflict
// predicate: what it is on whole reads it always was; a keyed read
// conflicts with exactly the writes that carry its key in its column.
func TestFootprintConflicts(t *testing.T) {
	i := ast.Int
	x1, x2, y1 := wr("x", i(1)), wr("x", i(2)), wr("y", i(1))
	emp := func(e string, d ast.Value) sched.Write { return wr("emp", ast.Str(e), d) }
	cases := []struct {
		name string
		a, b sched.Footprint
		want sched.CauseKind
	}{
		{"ww same tuple", fpOf(x1), fpOf(x1), sched.CauseSameTuple},
		{"ww same relation different tuple", fpOf(x1), fpOf(x2), sched.CauseNone},
		{"ww different relations", fpOf(x1), fpOf(y1), sched.CauseNone},
		{"writer vs whole reader", fpOf(x1), fpOf(y1, whole("x")), sched.CauseWholeRead},
		{"whole reader vs writer", fpOf(y1, whole("x")), fpOf(x2), sched.CauseWholeRead},
		{"read read overlap", fpOf(x1, whole("z")), fpOf(y1, whole("z")), sched.CauseNone},
		{"barrier vs anything", sched.Barrier(), fpOf(x1), sched.CauseBarrier},

		{"same key", fpOf(emp("a", i(7))), fpOf(y1, keyed("emp", 1, i(7))), sched.CauseKeyedRead},
		{"different key", fpOf(emp("a", i(8))), fpOf(y1, keyed("emp", 1, i(7))), sched.CauseNone},
		{"key in another column", fpOf(wr("emp", i(7), i(8))), fpOf(y1, keyed("emp", 1, i(7))), sched.CauseNone},
		{"keyed read of another relation", fpOf(emp("a", i(7))), fpOf(y1, keyed("dept", 1, i(7))), sched.CauseNone},
		{"whole read next to a keyed one", fpOf(emp("a", i(8))), fpOf(y1, keyed("emp", 1, i(7)), whole("emp")), sched.CauseWholeRead},
		{"keyed and whole readers of one relation", fpOf(x1, keyed("emp", 1, i(7))), fpOf(y1, whole("emp")), sched.CauseNone},
		{"two readers of one key group", fpOf(x1, keyed("emp", 1, i(7))), fpOf(y1, keyed("emp", 1, i(7))), sched.CauseNone},
		{"tuple too short for the column", fpOf(wr("emp", ast.Str("a"))), fpOf(y1, keyed("emp", 1, i(7))), sched.CauseKeyedRead},
		{"2/1 written, 2 read", fpOf(emp("a", ast.Rat(2, 1))), fpOf(y1, keyed("emp", 1, i(2))), sched.CauseKeyedRead},
		{"4/2 read, 2 written", fpOf(emp("a", i(2))), fpOf(y1, keyed("emp", 1, ast.Rat(4, 2))), sched.CauseKeyedRead},
		{"3/2 is not 1", fpOf(emp("a", ast.Rat(3, 2))), fpOf(y1, keyed("emp", 1, i(1))), sched.CauseNone},
		{"string key", fpOf(emp("a", ast.Str("toy"))), fpOf(y1, keyed("emp", 1, ast.Str("toy"))), sched.CauseKeyedRead},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, pair := range [][2]sched.Footprint{{c.a, c.b}, {c.b, c.a}} {
				got := pair[0].Conflict(pair[1])
				if got.Kind != c.want {
					t.Fatalf("Conflict(%v, %v) = %v, want %v", pair[0], pair[1], got.Kind, c.want)
				}
				if pair[0].Conflicts(pair[1]) != (c.want != sched.CauseNone) {
					t.Fatalf("Conflicts(%v, %v) disagrees with Conflict", pair[0], pair[1])
				}
			}
		})
	}
}

func TestCauseReason(t *testing.T) {
	w := fpOf(wr("emp", ast.Str("a"), ast.Int(7)))
	for _, c := range []struct {
		o    sched.Footprint
		want string
	}{
		{sched.Barrier(), "barrier"},
		{w, "same-tuple write of emp"},
		{fpOf(wr("y"), keyed("emp", 1, ast.Int(7))), "read of emp[1]"},
		{fpOf(wr("y"), whole("emp")), "whole read of emp"},
		{fpOf(wr("y")), ""},
	} {
		cause := w.Conflict(c.o)
		if got := cause.Reason(); got != c.want {
			t.Errorf("Reason(%v) = %q, want %q", c.o, got, c.want)
		}
		if cause.Kind == sched.CauseKeyedRead && !relation.InternedValue(cause.Key).Equal(ast.Int(7)) {
			t.Errorf("keyed cause names key %v, want 7", relation.InternedValue(cause.Key))
		}
	}
}

// TestFootprintUnion: a batch's footprint keeps every keyed read as it
// is (two key groups do not add up to the relation), drops repeats, and
// tells tuples apart by their columns, not by their fingerprint.
func TestFootprintUnion(t *testing.T) {
	ix := index(t, nil, refSrc)
	hire := func(e, d int64) store.Update { return store.Ins("emp", relation.Ints(e, d)) }
	u := ix.Batch([]store.Update{hire(1, 5), hire(2, 6), hire(1, 5), hire(3, 5)})
	if len(u.Writes) != 3 {
		t.Fatalf("union writes = %v, want deduped 3", u.Writes)
	}
	want := []sched.Read{keyed("dept", 0, ast.Int(5)), keyed("dept", 0, ast.Int(6))}
	if !reflect.DeepEqual(u.Reads, want) {
		t.Fatalf("union reads = %v, want %v", u.Reads, want)
	}
	if u.Conflicts(fpOf(wr("dept", ast.Int(7)))) {
		t.Fatal("batch reading dept[0=5] and dept[0=6] must not conflict with a write of dept(7)")
	}
	if !u.Conflicts(fpOf(wr("dept", ast.Int(6)))) {
		t.Fatal("batch reading dept[0=6] must conflict with a write of dept(6)")
	}

	// Two tuples with one fingerprint are two writes: the second one's
	// columns are what a keyed read of its group has to meet.
	c1, c2 := wr("emp", ast.Int(1), ast.Int(10)), wr("emp", ast.Int(2), ast.Int(20))
	c1.FP = c2.FP
	cu := ix.AppendUpdate(fpOf(c1), hire(2, 20))
	if len(cu.Writes) != 2 || !cu.Conflicts(fpOf(wr("y"), keyed("emp", 1, ast.Int(20)))) {
		t.Fatalf("colliding fingerprints hid a write: %v", cu.Writes)
	}
}

// TestAppendIntoScratch: footprints built one after another in one
// scratch, truncated each time, are each what a fresh build gives — the
// arrays past the lengths, a write's columns included, are overwritten,
// never read.
func TestAppendIntoScratch(t *testing.T) {
	ix := index(t, nil, refSrc, fiSrc)
	us := []store.Update{
		store.Ins("emp", relation.Ints(1, 5)), store.Ins("l", relation.Ints(1, 3)), store.Del("emp", relation.Ints(1, 5)),
		store.Ins("emp", relation.Ints(2, 6)), store.Ins("dept", relation.Ints(6)), store.Ins("r", relation.Ints(2)),
	}
	var scratch sched.Footprint
	for i := 0; i < 3*len(us); i++ {
		u := us[i%len(us)]
		reset := sched.Footprint{Writes: scratch.Writes[:0], Reads: scratch.Reads[:0]}
		var got, want sched.Footprint
		switch i % 3 {
		case 0:
			got, want = ix.AppendUpdate(reset, u), ix.Update(u)
		case 1:
			got, want = ix.AppendCheck(reset, u), ix.Check(u)
		default:
			batch := []store.Update{u, us[(i+1)%len(us)], u}
			got, want = ix.AppendBatch(reset, batch), ix.Batch(batch)
		}
		if !sameFootprint(got, want) {
			t.Fatalf("step %d (%s): built in scratch %+v, fresh %+v", i, u, got, want)
		}
		scratch = got
	}
}

func sameFootprint(a, b sched.Footprint) bool {
	return a.Barrier == b.Barrier && a.Wire == b.Wire && slices.Equal(a.Reads, b.Reads) &&
		slices.EqualFunc(a.Writes, b.Writes, func(x, y sched.Write) bool {
			return x.Relation == y.Relation && x.FP == y.FP && slices.Equal(x.Cols, y.Cols)
		})
}

// The interval-point exclusion constraint D1 drives most benchmarks:
// inserting into l must re-check against r and vice versa, while
// deletions are monotone-safe.
const fiSrc = `panic :- l(X, Y) & r(Z) & X <= Z & Z <= Y.`

// refSrc is the referential constraint of the dist_sharded workload.
const refSrc = `panic :- emp(E, D) & not dept(D).`

// index returns the footprints of a default checker — residual dispatch
// and polarity on — over an empty store with the constraints, the
// relations sh names remote.
func index(t testing.TB, sh core.Sharder, srcs ...string) core.Footprints {
	return footprints(t, core.Options{Sharder: sh}, srcs...)
}

func footprints(t testing.TB, opts core.Options, srcs ...string) core.Footprints {
	t.Helper()
	c := core.New(store.New(), opts)
	for i, src := range srcs {
		if err := c.AddConstraintSource(fmt.Sprintf("c%d", i), src); err != nil {
			t.Fatal(err)
		}
	}
	return c.Footprints()
}

func TestIndexResidualReads(t *testing.T) {
	ix := index(t, nil, fiSrc)
	cases := []struct {
		rel    string
		insert bool
		want   []sched.Read
	}{
		{"l", true, []sched.Read{whole("r")}}, // residual disjunct body; Z comes from a join
		{"r", true, []sched.Read{whole("l")}},
		{"l", false, nil}, // monotone-safe: deletes cannot violate
		{"r", false, nil},
		{"unrelated", true, nil}, // phase 1: not mentioned
	}
	for _, c := range cases {
		tup := relation.Ints(1, 2)
		if c.rel == "r" {
			tup = relation.Ints(1)
		}
		got := ix.Update(store.Update{Relation: c.rel, Insert: c.insert, Tuple: tup}).Reads
		if len(got)+len(c.want) > 0 && !reflect.DeepEqual(got, c.want) {
			t.Fatalf("reads(%s, insert=%v) = %v, want %v", c.rel, c.insert, got, c.want)
		}
	}
}

func TestIndexConservativeWithoutResidual(t *testing.T) {
	ix := footprints(t, core.Options{DisableResidual: true}, fiSrc)
	got := ix.Update(store.Ins("l", relation.Ints(1, 2))).Reads
	if !reflect.DeepEqual(got, []sched.Read{whole("l"), whole("r")}) {
		t.Fatalf("conservative reads = %v, want every EDB relation [l r], whole", got)
	}
	// Phase 1.5 still certifies deletions without reading anything.
	if got := ix.Update(store.Del("l", relation.Ints(1, 2))).Reads; len(got) != 0 {
		t.Fatalf("monotone-safe delete reads = %v, want none", got)
	}
}

// refusedSrc names a helper residual.Flatten refuses to unfold.
const refusedSrc = `
	covered(Z) :- l(Z, Y) & Z <= Y.
	panic :- r(Z) & not covered(Z).
`

func TestIndexIDBFallsBackToConservative(t *testing.T) {
	// A helper the compiler cannot unfold (negated, and neither a fact nor
	// a copy rule) makes the constraint residual-ineligible, so even with
	// residual dispatch on the read set must cover every EDB relation (the
	// pipeline may reach phase 3 / global evaluation).
	ix := index(t, nil, refusedSrc)
	got := ix.Update(store.Ins("r", relation.Ints(1))).Reads
	if !reflect.DeepEqual(got, []sched.Read{whole("l"), whole("r")}) {
		t.Fatalf("IDB constraint reads = %v, want [l r], whole", got)
	}
}

func TestIndexSecondOccurrenceKeepsOwnRelation(t *testing.T) {
	// Overlapping-interval constraint: inserting into l must re-check
	// against the *other* l tuples — none of whose columns the new tuple
	// fixes — so l stays in its own read set, whole.
	ix := index(t, nil, `panic :- l(X, Y) & l(U, V) & X < U & U < Y.`)
	got := ix.Update(store.Ins("l", relation.Ints(1, 2))).Reads
	if !reflect.DeepEqual(got, []sched.Read{whole("l")}) {
		t.Fatalf("self-join reads = %v, want [l]", got)
	}
}

func TestIndexUpdateFootprint(t *testing.T) {
	ix := index(t, nil, fiSrc)
	tup := relation.Ints(1, 5)
	f := ix.Update(store.Ins("l", tup))
	if len(f.Writes) != 1 || f.Writes[0].Relation != "l" || f.Writes[0].FP != tup.Fingerprint() {
		t.Fatalf("update writes = %v, want l@%d", f.Writes, tup.Fingerprint())
	}
	if want := wr("l", tup...); !reflect.DeepEqual(f.Writes[0], want) {
		t.Fatalf("update write = %v, want %v", f.Writes[0], want)
	}
	if !reflect.DeepEqual(f.Reads, []sched.Read{whole("r")}) {
		t.Fatalf("update reads = %v, want [r]", f.Reads)
	}

	// Two inserts of distinct tuples into l are independent; an insert
	// into r conflicts with both.
	g := ix.Update(store.Ins("l", relation.Ints(7, 9)))
	if f.Conflicts(g) {
		t.Fatal("distinct l inserts should not conflict")
	}
	h := ix.Update(store.Ins("r", relation.Ints(3)))
	if !f.Conflicts(h) || !g.Conflicts(h) {
		t.Fatal("r insert must conflict with l inserts (RW on both sides)")
	}
}

// TestCheckFootprintIsItsReads is the conflict table of a check: its
// reads alone (Footprints.Check, what serve.footprintFor submits),
// because a decision that commits nothing writes nothing. Checks never
// wait for each other; a check and an apply of one tuple are ordered only
// where the apply writes into what the check reads.
func TestCheckFootprintIsItsReads(t *testing.T) {
	ix := index(t, nil, refSrc, `panic :- e(X, Y) & e(Y, Z) & f(Z).`)
	apply, check := ix.Update, ix.Check
	emp := store.Ins("emp", relation.TupleOf(ast.Str("ann"), ast.Int(7)))
	loop := store.Ins("e", relation.Ints(1, 1))
	for _, c := range []struct {
		name string
		a, b sched.Footprint
		want sched.CauseKind
	}{
		{"check vs check of the same tuple", check(emp), check(emp), sched.CauseNone},
		{"check vs apply of the same tuple", check(emp), apply(emp), sched.CauseNone},
		{"check vs apply of the same tuple, which a read of the check covers", check(loop), apply(loop), sched.CauseKeyedRead},
		{"check vs check of that tuple", check(loop), check(loop), sched.CauseNone},
		{"check vs a write into its key group", check(emp), apply(store.Del("dept", relation.Ints(7))), sched.CauseKeyedRead},
		{"check vs a write into another key group", check(emp), apply(store.Del("dept", relation.Ints(8))), sched.CauseNone},
		{"apply vs apply of the same tuple", apply(emp), apply(emp), sched.CauseSameTuple},
	} {
		for _, pair := range [][2]sched.Footprint{{c.a, c.b}, {c.b, c.a}} {
			if got := pair[0].Conflict(pair[1]).Kind; got != c.want {
				t.Errorf("%s: Conflict(%v, %v) = %v, want %v", c.name, pair[0], pair[1], got, c.want)
			}
		}
	}
}

// TestIndexKeyedSpecs pins the substitution the keyed claims come from —
// the one residual.Compile applies — case by case.
func TestIndexKeyedSpecs(t *testing.T) {
	i := ast.Int
	cases := []struct {
		name string
		srcs []string
		u    store.Update
		want []sched.Read
	}{
		{"occurrence variable pins the probed column",
			[]string{refSrc}, store.Ins("emp", relation.Ints(1, 42)), []sched.Read{keyed("dept", 0, i(42))}},
		{"any column of an unsharded relation: a dept delete probes emp on column 1",
			[]string{refSrc}, store.Del("dept", relation.Ints(42)), []sched.Read{keyed("emp", 1, i(42))}},
		{"the key is the written value, however it is spelled",
			[]string{refSrc}, store.Del("dept", relation.TupleOf(ast.Rat(84, 2))), []sched.Read{keyed("emp", 1, i(42))}},
		{"no occurrence of the tuple's arity: the probe never runs",
			[]string{refSrc}, store.Del("dept", relation.Ints(42, 1)), nil},
		{"constant baked in the constraint",
			[]string{`panic :- hire(E) & frozen(hr).`}, store.Ins("hire", relation.Ints(1)), []sched.Read{keyed("frozen", 0, ast.Str("hr"))}},
		{"a pinned variable is preferred to a constant",
			[]string{`panic :- hire(E) & post(open, E).`}, store.Ins("hire", relation.Ints(9)), []sched.Read{keyed("post", 1, i(9))}},
		{"repeated variable: the first binding wins",
			[]string{`panic :- pair(X, X) & q(X).`}, store.Ins("pair", relation.Ints(3, 4)), []sched.Read{keyed("q", 0, i(3))}},
		{"a key that arrives from a join is a whole read",
			[]string{`panic :- a(X) & b(X, Y) & c(Y).`}, store.Ins("a", relation.Ints(1)), []sched.Read{keyed("b", 0, i(1)), whole("c")}},
		{"negated literal with a pinned argument",
			[]string{`panic :- a(X, Y) & not b(Y, X).`}, store.Ins("a", relation.Ints(1, 2)), []sched.Read{keyed("b", 0, i(2))}},
		{"one occurrence per disjunct: each names its own group",
			[]string{`panic :- e(X, Y) & e(Y, Z) & X < Z.`}, store.Ins("e", relation.Ints(1, 2)),
			[]sched.Read{keyed("e", 0, i(2)), keyed("e", 1, i(1))}},
		{"a helper unfolds: its literals are claimed like a flat constraint's",
			[]string{refSrc, "orphan(D) :- emp(E, D) & not dept(D).\npanic :- orphan(D) & audited(D)."},
			store.Del("dept", relation.Ints(42)),
			[]sched.Read{keyed("emp", 1, i(42)), keyed("audited", 0, i(42))}},
		{"a second constraint that is not residual-eligible keeps the claim whole",
			[]string{refSrc, "orphan(D) :- emp(E, D) & not staffed(D).\nstaffed(D) :- dept(D) & head(D, M).\npanic :- orphan(D) & audited(D)."},
			store.Del("dept", relation.Ints(42)),
			[]sched.Read{keyed("emp", 1, i(42)), whole("audited"), whole("dept"), whole("emp"), whole("head")}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := index(t, nil, c.srcs...).Update(c.u).Reads
			if len(got)+len(c.want) > 0 && !reflect.DeepEqual(got, c.want) {
				t.Fatalf("reads(%v) = %v, want %v", c.u, got, c.want)
			}
		})
	}
}

// placed is a core.Sharder: the named relations are remote, those with a
// non-negative column are fetched by key group on it.
type placed map[string]int

func (p placed) Remote(rel string) bool { _, ok := p[rel]; return ok }

func (p placed) ShardKey(rel string) (int, bool) {
	col, ok := p[rel]
	return col, ok && col >= 0
}

// TestFootprintsIgnoreDisableCache: the claims are the update pattern's,
// not the decision memo's. Under DisableCache a checker compiles no static
// step — it decides an unmentioned or monotone-safe pattern per update —
// and those patterns still read nothing, with or without residual
// dispatch.
func TestFootprintsIgnoreDisableCache(t *testing.T) {
	srcs := []string{refSrc, fiSrc, "covered(Z) :- l(Z, Y) & Z <= Y.\npanic :- r(Z) & covered(Z)."}
	us := []store.Update{
		store.Ins("emp", relation.Ints(1, 42)), store.Del("emp", relation.Ints(1, 42)),
		store.Ins("dept", relation.Ints(42)), store.Del("dept", relation.Ints(42)),
		store.Ins("l", relation.Ints(1, 5)), store.Del("l", relation.Ints(1, 5)),
		store.Ins("r", relation.Ints(3)), store.Del("r", relation.Ints(3)),
		store.Ins("other", relation.Ints(1)),
	}
	for _, residual := range []bool{true, false} {
		on := footprints(t, core.Options{DisableResidual: !residual, Sharder: placed{"dept": 0}}, srcs...)
		off := footprints(t, core.Options{DisableResidual: !residual, Sharder: placed{"dept": 0}, DisableCache: true}, srcs...)
		for _, u := range us {
			if a, b := on.Update(u), off.Update(u); !reflect.DeepEqual(a, b) {
				t.Errorf("residual=%v %s: footprint %+v, under DisableCache %+v", residual, u, a, b)
			}
		}
	}
	if got := footprints(t, core.Options{DisableResidual: true, DisableCache: true}, srcs...).Update(store.Ins("other", relation.Ints(1))); len(got.Reads) != 0 {
		t.Errorf("a relation no constraint mentions reads %v under DisableCache", got.Reads)
	}
}

// TestIndexRemoteRelations: a task refreshes the mirror of a remote
// relation before it reads it, so the claim follows the refresh — the
// shard-key group when that is what is fetched, the relation otherwise.
func TestIndexRemoteRelations(t *testing.T) {
	ins := store.Ins("emp", relation.Ints(1, 42))
	if got := index(t, placed{"dept": 0}, refSrc).Update(ins).Reads; !reflect.DeepEqual(got, []sched.Read{keyed("dept", 0, ast.Int(42))}) {
		t.Fatalf("sharded dept, shard key pinned: reads = %v, want dept[0=42]", got)
	}
	if got := index(t, placed{"dept": -1}, refSrc).Update(ins).Reads; !reflect.DeepEqual(got, []sched.Read{whole("dept")}) {
		t.Fatalf("dept whole on one site: reads = %v, want dept whole (the refresh replaces the mirror)", got)
	}
	// emp(E, D) sharded by E: a dept delete pins D, which is not the
	// column emp is fetched by.
	del := store.Del("dept", relation.Ints(42))
	if got := index(t, placed{"emp": 0}, refSrc).Update(del).Reads; !reflect.DeepEqual(got, []sched.Read{whole("emp")}) {
		t.Fatalf("emp sharded by column 0, column 1 pinned: reads = %v, want emp whole", got)
	}
	if got := index(t, placed{"dept": 0}, refSrc).Update(del).Reads; !reflect.DeepEqual(got, []sched.Read{keyed("emp", 1, ast.Int(42))}) {
		t.Fatalf("local emp next to a sharded dept: reads = %v, want emp[1=42]", got)
	}
}

// TestIndexKeyGroupFootprints: a self-join on a column the tuple fixes
// makes an insert read only its own key group, so inserts under
// different keys are independent while inserts under one key still
// conflict — sharder or no sharder, whatever shard the keys hash to.
func TestIndexKeyGroupFootprints(t *testing.T) {
	const src = `panic :- d(K, V) & d(K, W) & V < W.`
	for name, sh := range map[string]core.Sharder{"local": nil, "sharded": placed{"d": 0}} {
		ix := index(t, sh, src)
		a := ix.Update(store.Ins("d", relation.Ints(10, 1)))
		if !reflect.DeepEqual(a.Reads, []sched.Read{keyed("d", 0, ast.Int(10))}) {
			t.Fatalf("%s: key-bound self-join reads = %v, want d[0=10]", name, a.Reads)
		}
		for k := int64(11); k < 40; k++ {
			if b := ix.Update(store.Ins("d", relation.Ints(k, 2))); a.Conflicts(b) {
				t.Fatalf("%s: inserts under keys 10 and %d must not conflict", name, k)
			}
		}
		c := ix.Update(store.Ins("d", relation.Ints(10, 3)))
		if got := a.Conflict(c); got.Kind != sched.CauseKeyedRead || got.Relation != "d" || got.Col != 0 {
			t.Fatalf("%s: inserts under one key must conflict on the key group, got %+v", name, got)
		}
	}
	// A mirror that is refreshed whole is read whole: every pair
	// conflicts.
	ix := index(t, placed{"d": -1}, src)
	if !ix.Update(store.Ins("d", relation.Ints(10, 1))).Conflicts(ix.Update(store.Ins("d", relation.Ints(11, 2)))) {
		t.Fatal("inserts into a wholesale-refreshed d must conflict")
	}
}

// TestKeyGroupSchedulerOverlap runs the refinement through the real
// scheduler with the pattern the dist_sharded workload stalled on: a
// dept(K) delete and an emp(_, K') insert overlap in time, while the
// delete and an emp(_, K) insert serialize in admission order and say
// why.
func TestKeyGroupSchedulerOverlap(t *testing.T) {
	ix := index(t, placed{"dept": 0}, refSrc)
	del := ix.Update(store.Del("dept", relation.Ints(5)))

	s := sched.New(sched.Options{Workers: 2})
	second := make(chan struct{})
	done := make(chan struct{})
	s.Submit(del, func(sched.Info) {
		select {
		case <-second:
		case <-time.After(5 * time.Second):
			t.Error("emp insert under another key was serialized behind the dept delete")
		}
		close(done)
	})
	s.Submit(ix.Update(store.Ins("emp", relation.Ints(1, 6))), func(sched.Info) { close(second) })
	<-done
	s.Close()

	s2 := sched.New(sched.Options{Workers: 2})
	var order []string
	release := make(chan struct{})
	s2.Submit(del, func(sched.Info) {
		<-release
		order = append(order, "delete dept(5)")
	})
	s2.Submit(ix.Update(store.Ins("emp", relation.Ints(1, 5))), func(info sched.Info) {
		order = append(order, "insert emp(1,5)")
		// Each writes into the group the other reads; the earlier task's
		// write is met first.
		if info.Conflicts != 1 || info.Cause.Reason() != "read of dept[0]" || !relation.InternedValue(info.Cause.Key).Equal(ast.Int(5)) {
			t.Errorf("stall info = %+v, want one conflict on dept[0=5]", info)
		}
	})
	close(release)
	s2.Close()
	if !reflect.DeepEqual(order, []string{"delete dept(5)", "insert emp(1,5)"}) {
		t.Fatalf("same-key tasks ran as %v, want admission order", order)
	}
}

// TestIndexReadPlan pins the coordinator-facing classification: keyed
// residual probes surface their exact key values as point ranges,
// comparisons bounding a residual read surface as its range, reads
// nothing bounds demand a whole-mirror refresh, and so do the reads of
// residual-ineligible patterns, which an evaluation makes.
func TestIndexReadPlan(t *testing.T) {
	same := func(got, want []relation.Range) bool {
		return slices.EqualFunc(got, want, relation.Range.Equal)
	}
	// Key-bound: the occurrence pins D, so dept is probed with exactly
	// the inserted tuple's second component — the group the footprint
	// claims.
	ix := index(t, placed{"dept": 0}, refSrc)
	ins := store.Ins("emp", relation.Ints(1, 42))
	rp := ix.ReadPlan(ins, "dept")
	if !same(rp.Ranges, []relation.Range{relation.PointRange(0, ast.Int(42))}) || rp.Mirror {
		t.Fatalf("key-bound read: %+v, want the point 42 only", rp)
	}
	if got := ix.Update(ins).Reads; !reflect.DeepEqual(got, []sched.Read{keyed("dept", 0, ast.Int(42))}) {
		t.Fatalf("footprint %v and read plan %v name different groups", got, rp.Ranges)
	}
	if rp := ix.ReadPlan(ins, "l"); !reflect.DeepEqual(rp, core.ReadPlan{}) {
		t.Fatalf("relation the check never reads: %+v, want the zero plan", rp)
	}
	// Two disjuncts, one key: fetched once.
	ix2 := index(t, placed{"dept": 0}, refSrc, `panic :- emp(E, D) & closed(D) & dept(D).`)
	if rp := ix2.ReadPlan(ins, "dept"); !same(rp.Ranges, []relation.Range{relation.PointRange(0, ast.Int(42))}) || rp.Mirror {
		t.Fatalf("one key probed twice: %+v, want the point 42", rp)
	}
	// A point on a column the relation is not sharded by is a bounded read
	// too — of every shard — though the footprint claims the whole relation.
	del, ixe := store.Del("dept", relation.Ints(42)), index(t, placed{"dept": 0, "emp": 0}, refSrc)
	if rp := ixe.ReadPlan(del, "emp"); !same(rp.Ranges, []relation.Range{relation.PointRange(1, ast.Int(42))}) || rp.Mirror {
		t.Fatalf("point on a non-shard-key column: %+v, want the point 42 of column 1", rp)
	}
	if got := ixe.Update(del).Reads; !reflect.DeepEqual(got, []sched.Read{{Relation: "emp"}}) {
		t.Fatalf("point on a non-shard-key column claims %v, want all of emp", got)
	}

	// Range-bound residual read: the l occurrence bounds r's column by its
	// two positions, whole or sharded; the claim stays on all of r.
	for _, p := range []placed{{"r": 0}, {"r": -1}} {
		ix3 := index(t, p, fiSrc)
		l := store.Ins("l", relation.Ints(1, 5))
		want := relation.Range{Col: 0, Lo: ast.Int(1), Hi: ast.Int(5), HasLo: true, HasHi: true}
		if rp := ix3.ReadPlan(l, "r"); !same(rp.Ranges, []relation.Range{want}) || rp.Mirror {
			t.Fatalf("%v: range-bound residual read misclassified: %+v", p, rp)
		}
		if got := ix3.Update(l).Reads; !reflect.DeepEqual(got, []sched.Read{{Relation: "r"}}) {
			t.Fatalf("%v: range read claims %v, want all of r", p, got)
		}
	}
	// Strict and one-sided comparisons, and a constant bound.
	ix5 := index(t, placed{"r": 0}, `panic :- l(X, Y) & r(Z) & X < Z & Z < 10.`, `panic :- m(X) & r(Z) & Z >= X.`)
	want := []relation.Range{{Col: 0, Lo: ast.Int(1), Hi: ast.Int(10), HasLo: true, HasHi: true, LoOpen: true, HiOpen: true}}
	if rp := ix5.ReadPlan(store.Ins("l", relation.Ints(1, 5)), "r"); !same(rp.Ranges, want) {
		t.Fatalf("strict bounds: %+v, want %+v", rp, want)
	}
	want = []relation.Range{{Col: 0, Lo: ast.Int(3), HasLo: true}}
	if rp := ix5.ReadPlan(store.Ins("m", relation.Ints(3)), "r"); !same(rp.Ranges, want) {
		t.Fatalf("one-sided bound: %+v, want %+v", rp, want)
	}
	// Nothing bounds r's column: the whole mirror must be refreshed.
	ix6 := index(t, placed{"r": 0}, `panic :- l(X, Y) & r(Z) & Y <= X.`)
	if rp := ix6.ReadPlan(store.Ins("l", relation.Ints(5, 1)), "r"); !rp.Mirror || len(rp.Ranges) != 0 {
		t.Fatalf("unbounded residual read misclassified: %+v", rp)
	}

	// Residual-ineligible (a helper Flatten refuses): evaluation reads,
	// refreshed whole.
	ix4 := index(t, placed{"r": 0}, refusedSrc)
	u := store.Ins("r", relation.Ints(1))
	if r, l := ix4.ReadPlan(u, "r"), ix4.ReadPlan(u, "l"); !r.Mirror || !l.Mirror || len(r.Ranges)+len(l.Ranges) != 0 {
		t.Fatalf("general read misclassified: r %+v, l %+v", r, l)
	}
}

// distStream is a stream of the dist_sharded workload's shape (bench/
// dist.go): its two constraints, dept hash-sharded, Zipf-skewed dept
// keys on the emp side, and dept writes under keys no emp refers to.
func distStream(t *testing.T, seed int64, n int) (core.Footprints, []sched.Footprint) {
	ix := index(t, placed{"dept": 0, "r": -1}, refSrc, fiSrc)
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.2, 1, 1999)
	const deptWriteBase = 1_000_000
	var seq int64
	emp := func() store.Update {
		seq++
		return store.Ins("emp", relation.TupleOf(ast.Str(fmt.Sprintf("h%d", seq)), ast.Int(int64(zipf.Uint64()))))
	}
	var pending []store.Update // applied inserts not yet undone
	fps := make([]sched.Footprint, 0, n)
	for len(fps) < n {
		switch p := rng.Intn(100); {
		case p < 30: // emp check
			fps = append(fps, ix.Update(emp()))
		case p < 75 && len(pending) > 8 && rng.Intn(2) == 0: // undo an earlier apply
			k := len(pending) - 1 - rng.Intn(8) // recent enough to meet its insert now and then
			u := pending[k]
			pending = append(pending[:k], pending[k+1:]...)
			fps = append(fps, ix.Update(store.Del(u.Relation, u.Tuple)))
		case p < 55: // emp apply
			u := emp()
			pending = append(pending, u)
			fps = append(fps, ix.Update(u))
		case p < 75: // dept apply
			seq++
			u := store.Ins("dept", relation.Ints(deptWriteBase+seq))
			pending = append(pending, u)
			fps = append(fps, ix.Update(u))
		case p < 95: // l check
			lo := int64(rng.Intn(1 << 20))
			fps = append(fps, ix.Update(store.Ins("l", relation.Ints(lo, lo+2))))
		default: // atomic batch of emp inserts and two dept writes
			us := make([]store.Update, 16)
			for i := range us {
				us[i] = emp()
			}
			seq += 2
			us[0], us[1] = store.Ins("dept", relation.Ints(deptWriteBase+seq-1)), store.Ins("dept", relation.Ints(deptWriteBase+seq))
			fps = append(fps, ix.Batch(us))
		}
	}
	return ix, fps
}

// TestDistShardedStallShare counts, on a fixed seeded stream, the pairs
// of requests within sixteen of each other (the workload's callers) that
// conflict. The count repeats exactly, so a claim that goes back to
// whole relations fails here, not in a benchmark: with whole-relation
// reads a dept delete conflicts with every emp insert and check around
// it — a tenth of the stream against half of it.
func TestDistShardedStallShare(t *testing.T) {
	const n, window = 4000, 16
	_, fps := distStream(t, 1, n)
	pairs, conflicts := 0, 0
	byKind := map[sched.CauseKind]int{}
	for i := range fps {
		for j := max(0, i-window); j < i; j++ {
			pairs++
			if c := fps[j].Conflict(fps[i]); c.Kind != sched.CauseNone {
				conflicts++
				byKind[c.Kind]++
			}
		}
	}
	share := float64(conflicts) / float64(pairs)
	t.Logf("%d of %d pairs conflict (%.4f): %v", conflicts, pairs, share, byKind)
	if share >= 0.01 {
		t.Fatalf("conflict share %.4f of pairs within %d, want < 0.01: %v", share, window, byKind)
	}
	if n := byKind[sched.CauseWholeRead] + byKind[sched.CauseKeyedRead]; n > 0 {
		t.Fatalf("%d read conflicts: nothing in this stream writes a relation that is read whole or a key that is read: %v", n, byKind)
	}
	_, again := distStream(t, 1, n)
	for i := range fps {
		if !reflect.DeepEqual(fps[i], again[i]) {
			t.Fatalf("footprint %d does not repeat: %v, then %v", i, fps[i], again[i])
		}
	}
}

// TestWire: the bit that tells the scheduler a task may wait on a site is
// set exactly when the task writes, or its check reads, a relation the
// Sharder reports remote — and never without a Sharder, which is what
// keeps a single-checker server's Workers a bound on everything it runs.
func TestWire(t *testing.T) {
	sh := placed{"dept": 0, "r": -1}
	emp := relation.TupleOf(ast.Str("ann"), ast.Int(7))
	cases := []struct {
		name string
		u    store.Update
		want bool
	}{
		{"local write, remote keyed read", store.Ins("emp", emp), true},
		{"local write decided by polarity, no reads", store.Del("emp", emp), false},
		{"remote write, no reads", store.Ins("dept", relation.Ints(7)), true},
		{"remote write, local read", store.Del("dept", relation.Ints(7)), true},
		{"local write, whole read of a remote relation", store.Ins("l", relation.Ints(1, 3)), true},
		{"local write, no reads", store.Del("l", relation.Ints(1, 3)), false},
		{"relation no constraint mentions", store.Ins("other", relation.Ints(1)), false},
	}
	remote, local := index(t, sh, refSrc, fiSrc), index(t, nil, refSrc, fiSrc)
	for _, c := range cases {
		if got := remote.Update(c.u).Wire; got != c.want {
			t.Errorf("%s: %s Wire = %v, want %v", c.name, c.u, got, c.want)
		}
		if local.Update(c.u).Wire {
			t.Errorf("%s: %s is Wire without a Sharder", c.name, c.u)
		}
	}

	if !remote.AppendUpdate(remote.Update(cases[1].u), cases[0].u).Wire || !remote.AppendUpdate(remote.Update(cases[0].u), cases[1].u).Wire {
		t.Error("appending to a footprint must OR Wire")
	}
	if !remote.Batch([]store.Update{cases[1].u, cases[0].u}).Wire || remote.Batch([]store.Update{cases[1].u, cases[5].u}).Wire {
		t.Error("Batch must be Wire exactly when one of its updates is")
	}
	if local.Batch([]store.Update{cases[0].u, cases[2].u}).Wire {
		t.Error("Batch is Wire without a Sharder")
	}
	// Ordering does not look at it.
	a, b := remote.Update(cases[0].u), remote.Update(cases[0].u)
	b.Wire = false
	if a.Conflict(b) != b.Conflict(b) {
		t.Error("Conflict must not depend on Wire")
	}
}
