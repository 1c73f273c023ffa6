package residual

import (
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
)

// fuzzShapes are the constraints FuzzResidualPreState draws from: flat
// shapes in which the updated relation occurs again in the residual, so
// that deciding on the database before the update differs from reading
// it — plus one where it does not, as the control.
var fuzzShapes = func() []*ast.Program {
	var out []*ast.Program
	for _, src := range []string{
		"panic :- e(X,Y) & e(Y,Z) & f(Z).",         // positive self-join
		"panic :- e(X,Y) & e(Y,X) & X < Y.",        // symmetric pair
		"panic :- e(X,Y) & not e(Y,X).",            // negated self
		"panic :- e(X,X) & f(X).",                  // repeated variable
		"panic :- emp(E,D) & not dept(D).",         // negated other relation
		"panic :- e(1,X) & e(X,Y) & f(Y).",         // pinned constant, then self-join
		"panic :- e(X,Y) & f(X) & not e(Y,Y).",     // positive and negated self
		"panic :- e(X,Y) & e(X,Z) & Y < Z & f(Y).", // self-join on the first column
	} {
		out = append(out, parser.MustParseProgram(src))
	}
	return out
}()

var fuzzArity = map[string]int{"e": 2, "f": 1, "emp": 2, "dept": 1}

// fuzzTuple reads an arity-ar tuple over {0,1,2} out of one byte; three
// values keep X = Y, duplicates and absent deletes frequent.
func fuzzTuple(b byte, ar int) relation.Tuple {
	t := make(relation.Tuple, ar)
	for i := range t {
		t[i] = ast.Int(int64(b % 3))
		b /= 3
	}
	return t
}

// FuzzResidualPreState holds the compiled residual, run on the database
// before the update, to full evaluation of the constraint on an updated
// copy: bytes choose a shape, an update (either polarity, any relation
// of the shape) and a small pre-state, which is discarded if it violates
// the constraint — the premise of the residual argument. Byte 1's high
// bit leaves the relations uncreated unless a tuple creates them, the
// "relation unseen at compile time" arm. The database must come out of
// Decide as it went in.
func FuzzResidualPreState(f *testing.F) {
	// The grid: every shape, polarity and relation of the shape, the update
	// tuples (0,0) (1,1) (1,0) (0,1), over pre-states that hold nothing, a
	// tuple of the other relation, the update's own tuple (duplicate insert,
	// present delete) or a symmetric pair — with the relations created up
	// front and not. It reaches each adjustment the VM makes: the inserted
	// tuple matching two literals (e(1,1) with f(1)), not e(t) under an
	// insert and under a delete, the deleted tuple among the candidates.
	for s := range fuzzShapes {
		for flags := byte(0); flags < 4; flags++ { // relation index, polarity
			for _, tu := range []byte{0, 4, 1, 3} {
				for _, pre := range [][]byte{{}, {flags>>1 ^ 1, 1}, {flags >> 1, tu}, {0, 1, 0, 3}} {
					for _, absent := range []byte{0, 0x80} {
						f.Add(append([]byte{byte(s), absent | flags, tu}, pre...))
					}
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 200; i++ {
		b := make([]byte, 3+rng.Intn(14))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		p := fuzzShapes[int(data[0])%len(fuzzShapes)]
		rels := p.EDBPreds()
		pre := store.New()
		if data[1]&0x80 == 0 {
			for _, rel := range rels {
				pre.MustEnsure(rel, fuzzArity[rel])
			}
		}
		for i := 3; i+1 < len(data) && i < 3+2*8; i += 2 {
			rel := rels[int(data[i])%len(rels)]
			if _, err := pre.Insert(rel, fuzzTuple(data[i+1], fuzzArity[rel])); err != nil {
				t.Fatal(err)
			}
		}
		if bad, err := eval.PanicHolds(p, pre.Clone()); err != nil || bad {
			if err != nil {
				t.Fatal(err)
			}
			return
		}
		rel := rels[int(data[1]>>1&0x3f)%len(rels)]
		u := store.Update{Insert: data[1]&1 == 1, Relation: rel, Tuple: fuzzTuple(data[2], fuzzArity[rel])}
		post := pre.Clone()
		if err := u.Apply(post); err != nil {
			t.Fatal(err)
		}
		want, err := eval.PanicHolds(p, post.Clone())
		if err != nil {
			t.Fatal(err)
		}
		sh := DeriveShape(p, u.Relation, u.Insert)
		if !sh.Eligible {
			t.Fatalf("%s: pattern of %v ineligible", p, u)
		}
		before, schema, version := pre.Dump(), pre.SchemaVersion(), pre.DataVersion(u.Relation)
		for _, opts := range []Options{{}, {DisableIndexes: true}} {
			res := Compile(p, u.Relation, u.Insert, u.Tuple, sh, pre, opts)
			if got := res.Decide(pre, u.Tuple); got != want {
				t.Fatalf("%+v: residual on the pre-state says violated=%v, evaluation of the updated copy %v\nconstraint: %s\nupdate: %v\npre-state:\n%s",
					opts, got, want, p, u, before)
			}
			// The same residual on the updated database: the adjustment is
			// idempotent.
			if got := res.Decide(post, u.Tuple); got != want {
				t.Fatalf("%+v: residual on the post-state says violated=%v, evaluation %v\nconstraint: %s\nupdate: %v\npre-state:\n%s",
					opts, got, want, p, u, before)
			}
		}
		if pre.Dump() != before || pre.SchemaVersion() != schema || pre.DataVersion(u.Relation) != version {
			t.Fatalf("deciding %v wrote the database", u)
		}
	})
}
