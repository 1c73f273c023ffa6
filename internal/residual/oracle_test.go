package residual

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/eval/naive"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
)

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
	rcache := NewCache()
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
			if pre, err := eval.PanicHolds(prog, db.Clone()); err != nil || pre {
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
			res, _, ok := rcache.For(prog, u, db, Options{})
			if !ok {
				t.Fatalf("constraint %d not residual-eligible", pi)
			}
			// Each trial has its own store (the cache keys on store
			// identity), so the hit path is exercised by a repeat lookup.
			if again, hit, _ := rcache.For(prog, u, db, Options{}); !hit || again != res {
				t.Fatalf("constraint %d trial %d: repeat lookup missed the pattern cache", pi, trial)
			}
			post := db.Clone()
			if err := u.Apply(post); err != nil {
				t.Fatal(err)
			}
			full, err := eval.PanicHolds(prog, post.Clone())
			if err != nil {
				t.Fatal(err)
			}
			rendered, err := eval.PanicHolds(res.Program(u.Tuple), post.Clone())
			if err != nil {
				t.Fatalf("constraint %d trial %d: rendered residual: %v\n%s", pi, trial, err, res.Program(u.Tuple))
			}
			oracle, err := naive.Holds(prog, post, ast.PanicPred)
			if err != nil {
				t.Fatal(err)
			}
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
