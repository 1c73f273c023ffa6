package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval/naive"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
)

// oracleConstraints is the pool the differential test draws constraint
// sets from. Between them an insert reaches panic through linear and
// non-linear recursion, through helper predicates, across strata, past
// negation over relations and lower strata it cannot reach — and, for
// the relations marked non-monotone, through a negation, which must take
// the from-scratch fallback.
var oracleConstraints = []struct{ name, src string }{
	{"acyclic", "reach(X,Y) :- e(X,Y).\nreach(X,Y) :- reach(X,Z) & e(Z,Y).\npanic :- reach(X,X)."},
	{"nonlinear", "t(X,Y) :- e(X,Y) & X < Y.\nt(X,Y) :- t(X,Z) & t(Z,Y).\npanic :- t(X,Y) & f(X) & g(Y)."},
	{"hub", "hub(X) :- e(X,Y) & e(X,Z) & Y < Z.\npanic :- hub(X) & g(X)."},
	// e and f are monotone; g (blocked) and h (excused) are read negated.
	{"guarded", "r(X,Y) :- e(X,Y) & not g(X).\nr(X,Y) :- r(X,Z) & e(Z,Y).\npanic :- r(X,Y) & f(Y) & not h(X)."},
	// e flows up two strata; g reaches panic only through a negation.
	{"strata", "a(X) :- e(X,Y).\nm(X) :- g(X).\nb(X) :- a(X) & not m(X).\npanic :- b(X) & f(X) & h(X)."},
	// e reaches panic both positively and through "not linked".
	{"mixed", "linked(X) :- e(X,Y).\nlone(X) :- f(X) & not linked(X).\npanic :- lone(X) & e(Y,X) & g(Y)."},
	{"flat", "panic :- e(X,X) & f(X)."},
	// Flat, so residual-decided, with the updated relation occurring again
	// in the residual: a self-join the new tuple can match twice, and a
	// negated self-occurrence (e must stay symmetric on g).
	{"selfjoin", "panic :- e(X,Y) & e(Y,Z) & f(Z)."},
	{"symmetric", "panic :- e(X,Y) & g(X) & not e(Y,X)."},
}

// helperConstraints join the pool of TestCheckerAgainstOracles. With
// oracleConstraints' hub (a self-joining helper), strata (a negated copy
// rule) and mixed (a negated helper the expansion refuses, decided by the
// global phase) they give every kind of helper the residual compiler
// unfolds or refuses (residual.Flatten): negated facts, whose expansion
// is a comparison; a helper of two rules, one disjunct each; a negated
// copy rule whose head permutes its arguments; helpers after the literal
// whose variables they pin to a constant or equate; and a negated copy
// rule with a constant in its head, which the expansion refuses.
var helperConstraints = []struct{ name, src string }{
	{"excused", "ok(0).\nok(1).\npanic :- e(X,Y) & f(Y) & not ok(X)."},
	{"either", "bad(X) :- e(X,X).\nbad(X) :- e(X,Y) & h(Y).\npanic :- bad(X) & g(X)."},
	{"mirror", "link(X,Y) :- e(X,Y).\npanic :- e(X,Y) & g(X) & not link(Y,X)."},
	{"early", "ok(1).\npanic :- e(X,Y) & f(Y) & ok(X)."},
	{"equal", "same(X,X) :- f(X).\npanic :- e(A,B) & same(A,B) & g(A)."},
	{"pinned", "m(X,1) :- g(X).\npanic :- e(X,Y) & h(X) & not m(X,Y)."},
}

// expanded names the constraints of the two pools that are compiled
// checks of their expansions.
var expanded = map[string]bool{"hub": true, "strata": true, "excused": true, "either": true, "mirror": true, "early": true, "equal": true}

var oracleArity = map[string]int{"e": 2, "f": 1, "g": 1, "h": 1}

func randomTuple(rng *rand.Rand, rel string) relation.Tuple {
	tu := make(relation.Tuple, oracleArity[rel])
	for i := range tu {
		tu[i] = ast.Int(int64(rng.Intn(4)))
	}
	return tu
}

func randomUpdate(rng *rand.Rand) store.Update {
	rels := []string{"e", "e", "e", "f", "g", "h"}
	rel := rels[rng.Intn(len(rels))]
	if rng.Intn(3) == 0 {
		return store.Del(rel, randomTuple(rng, rel))
	}
	return store.Ins(rel, randomTuple(rng, rel))
}

// violates reports whether db violates any of the programs, by
// brute-force grounding (internal/eval/naive), which shares no code with
// the join engine the checker decides on.
func violates(t *testing.T, progs map[string]*ast.Program, db *store.Store) bool {
	t.Helper()
	bad := false
	for _, prog := range progs {
		full, err := naive.Holds(prog, db, ast.PanicPred)
		if err != nil {
			t.Fatal(err)
		}
		bad = bad || full
	}
	return bad
}

// TestCheckerAgainstOracles drives random streams of Check, Apply,
// ApplyBatch, foreign store writes and constraint-set changes through a
// default checker — global insert decisions by delta rounds on kept
// fixpoints — and after every operation holds it to three references:
// the verdict equals full evaluation of every constraint on a copy of
// the store; the store equals the model's; and every fixpoint the checker
// keeps and would trust equals a fresh evaluation. A decision that admits
// nothing — every Check, every rejected Apply — must also leave the store
// as it found it, versions included (storeState).
func TestCheckerAgainstOracles(t *testing.T) {
	var total Stats
	rejectedMidBatch, foreign, expandedChecks := 0, 0, 0
	pool := append(slices.Clone(oracleConstraints), helperConstraints...)
	// countExpanded counts the decisions a compiled expansion made.
	countExpanded := func(rep Report) {
		for _, d := range rep.Decisions {
			if expanded[d.Constraint] && d.Phase == PhaseResidual {
				expandedChecks++
			}
		}
	}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := store.New()
		for rel := range oracleArity {
			db.MustEnsure(rel, oracleArity[rel])
		}
		for i := 0; i < 3; i++ {
			if _, err := db.Insert("e", randomTuple(rng, "e")); err != nil {
				t.Fatal(err)
			}
		}
		chk := New(db, Options{})
		progs := map[string]*ast.Program{}
		add := func() {
			k := pool[rng.Intn(len(pool))]
			if progs[k.name] != nil {
				return
			}
			prog := parser.MustParseProgram(k.src)
			// AddConstraint refuses a constraint the store violates.
			if err := chk.AddConstraint(k.name, prog); err == nil {
				progs[k.name] = prog
			}
		}
		for len(progs) < 2 {
			add()
		}
		// model is the store the references say the checker should hold.
		model := db.Clone()
		admits := func(pre *store.Store, u store.Update) (*store.Store, bool) {
			post := pre.Clone()
			if err := u.Apply(post); err != nil {
				t.Fatal(err)
			}
			return post, !violates(t, progs, post)
		}
		for step := 0; step < 60; step++ {
			what := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(20); {
			case op < 8:
				u := randomUpdate(rng)
				_, want := admits(model, u)
				before := storeState(db)
				rep, err := chk.Check(u)
				if err != nil || rep.Applied != want {
					t.Fatalf("%s: check %v: applied=%v err=%v, references say %v\ndb:\n%s", what, u, rep.Applied, err, want, model)
				}
				countExpanded(rep)
				if after := storeState(db); after != before {
					t.Fatalf("%s: check %v wrote the store\nbefore:\n%s\nafter:\n%s", what, u, before, after)
				}
			case op < 14:
				u := randomUpdate(rng)
				post, want := admits(model, u)
				before := storeState(db)
				rep, err := chk.Apply(u)
				if err != nil || rep.Applied != want {
					t.Fatalf("%s: apply %v: applied=%v err=%v, references say %v\ndb:\n%s", what, u, rep.Applied, err, want, model)
				}
				countExpanded(rep)
				if want {
					model = post
				} else if after := storeState(db); after != before {
					t.Fatalf("%s: rejected apply %v wrote the store\nbefore:\n%s\nafter:\n%s", what, u, before, after)
				}
			case op < 17:
				us := make([]store.Update, 2+rng.Intn(3))
				for i := range us {
					us[i] = randomUpdate(rng)
				}
				cur, failedAt := model, -1
				for i, u := range us {
					post, ok := admits(cur, u)
					if !ok {
						failedAt = i
						break
					}
					cur = post
				}
				if failedAt == 0 {
					// The member the batch will fail on, decided alone first.
					before := storeState(db)
					if rep, err := chk.Apply(us[0]); err != nil || rep.Applied {
						t.Fatalf("%s: batch member %v alone: %+v err=%v, references reject it", what, us[0], rep, err)
					}
					if after := storeState(db); after != before {
						t.Fatalf("%s: rejected batch member %v wrote the store\nbefore:\n%s\nafter:\n%s", what, us[0], before, after)
					}
				}
				br, err := chk.ApplyBatch(us)
				if err != nil || br.FailedAt != failedAt || br.Applied != (failedAt < 0) {
					t.Fatalf("%s: batch %v: %+v err=%v, references say failedAt=%d", what, us, br, err, failedAt)
				}
				if failedAt < 0 {
					model = cur
				} else if failedAt > 0 {
					rejectedMidBatch++
				}
			case op < 18:
				// A write behind the checker's back, kept consistent: the
				// staged tests assume the constraints held before each update.
				rel := []string{"e", "f", "g", "h"}[rng.Intn(4)]
				var ts []relation.Tuple
				for i := rng.Intn(4); i > 0; i-- {
					ts = append(ts, randomTuple(rng, rel))
				}
				post := model.Clone()
				if err := post.ReplaceRange(rel, oracleArity[rel], relation.Range{}, relation.Rows(ts)); err != nil {
					t.Fatal(err)
				}
				if violates(t, progs, post) {
					continue
				}
				if err := db.ReplaceRange(rel, oracleArity[rel], relation.Range{}, relation.Rows(ts)); err != nil {
					t.Fatal(err)
				}
				model = post
				foreign++
			case op < 19:
				add()
			default:
				if names := chk.Constraints(); len(names) > 1 {
					name := names[rng.Intn(len(names))]
					chk.RemoveConstraint(name)
					delete(progs, name)
				}
			}
			if got, want := sortedLines(db.Dump()), sortedLines(model.Dump()); got != want {
				t.Fatalf("%s: store diverged from the model\nchecker:\n%s\nmodel:\n%s", what, got, want)
			}
			checkKept(t, chk)
		}
		s := chk.Stats()
		total.FixpointHits += s.FixpointHits
		total.FixpointRebuilds += s.FixpointRebuilds
		total.FixpointDrops += s.FixpointDrops
		total.Rejected += s.Rejected
		total.ByPhase = map[Phase]int{PhaseGlobal: total.ByPhase[PhaseGlobal] + s.ByPhase[PhaseGlobal]}
	}
	t.Logf("totals: %+v midbatch=%d foreign=%d expanded=%d", total, rejectedMidBatch, foreign, expandedChecks)
	// The streams must have reached what the test is for.
	if total.FixpointHits < 100 || total.FixpointRebuilds < 30 || total.FixpointDrops < 30 {
		t.Errorf("kept fixpoints barely exercised: %+v", total)
	}
	if fallbacks := int64(total.ByPhase[PhaseGlobal]) - total.FixpointHits - total.FixpointRebuilds; fallbacks < 50 {
		t.Errorf("only %d global decisions took the from-scratch fallback", fallbacks)
	}
	if expandedChecks < 100 {
		t.Errorf("only %d decisions by the compiled check of a helper constraint's expansion", expandedChecks)
	}
	if total.Rejected < 50 || rejectedMidBatch < 5 || foreign < 10 {
		t.Errorf("thin stream: %d rejections, %d mid-batch, %d foreign writes", total.Rejected, rejectedMidBatch, foreign)
	}
}
