package residual

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/ast"
	"repro/internal/eval/naive"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
)

// fuzzShape is one constraint FuzzResidualPreState draws from, with the
// relation the checking site holds (every other one is remote) and
// whether an insert into it may compile a local certificate.
type fuzzShape struct {
	prog  *ast.Program
	arity map[string]int
	local string
	// cert: the local relation occurs once, so its insert is certified;
	// false for the self-joins, which must compile no certificate.
	cert bool
}

// fuzzShapes: flat shapes in which the updated relation occurs again in
// the residual, so that deciding on the database before the update
// differs from reading it — plus ones where it does not, the control and
// the shapes local certificates are compiled for — and constraints with
// helper predicates.
var fuzzShapes = func() []fuzzShape {
	var out []fuzzShape
	for _, s := range []struct {
		src, local string
		cert       bool
	}{
		{"panic :- e(X,Y) & e(Y,Z) & f(Z).", "e", false},         // positive self-join
		{"panic :- e(X,Y) & e(Y,X) & X < Y.", "e", false},        // symmetric pair, nothing remote
		{"panic :- e(X,Y) & not e(Y,X).", "e", false},            // negated self
		{"panic :- e(X,X) & f(X).", "e", true},                   // repeated variable the rest reads
		{"panic :- emp(E,D) & not dept(D).", "emp", true},        // referential: negated remote relation
		{"panic :- e(1,X) & e(X,Y) & f(Y).", "e", false},         // pinned constant, then self-join
		{"panic :- e(X,Y) & f(X) & not e(Y,Y).", "e", false},     // positive and negated self
		{"panic :- e(X,Y) & e(X,Z) & Y < Z & f(Y).", "e", false}, // self-join on the first column
		{"panic :- emp(E,D) & dept(D,M) & not mgr(M).", "emp", true},
		{"panic :- emp(E,D,1) & not dept(D).", "emp", true},         // constant in the occurrence
		{"panic :- pair(X,X,D) & not dept(D).", "pair", true},       // repeated variable nothing else reads
		{"panic :- emp(E,D,S) & not dept(D) & S > 0.", "emp", true}, // comparison on a local column
		{"panic :- emp(E,D) & emp(F,D) & not dept(D).", "emp", false},
		{"panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.", "l", true}, // the ICQ
		// Range steps: a strict bound from a parameter (+a) or from the
		// register the hash-probed a binds (+c; under +b, c is planned first
		// and a is probed, so nothing is ranged); the ICQ with its operands
		// reversed, and under a constant bound; a self range; a comparison
		// inside one atom, which bounds no range.
		{"panic :- c(K) & a(K,X) & b(Y) & X < Y.", "c", true},
		{"panic :- l(X,Y) & r(Z) & Z >= X & Y >= Z.", "l", true},
		{"panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y & Z < 2.", "l", true},
		{"panic :- e(X,Y) & e(Z,W) & X <= Z & Z <= Y & f(W).", "e", false},
		{"panic :- l(X,Y) & r(Z) & X < Y & Y <= Z.", "l", true},
		// Helper predicates, compiled from their expansion (Flatten) and held
		// to grounding of the program as written: a self-joining helper,
		// whose expansion joins e with itself and so compiles no
		// certificate; negated helpers in the two shapes the expansion
		// takes — a copy rule, also with its head permuted, facts (not
		// ok(Y) is Y <> 1); a helper with two rules, one disjunct each;
		// helpers after the literal they pin (ok(X) makes it e(1,Y)) or
		// equate (same(A,B) makes it e(B,B)); and negated helpers the
		// expansion refuses — not a copy rule, a copy rule whose head has
		// a constant — for which no check is compiled.
		{"hub(X) :- e(X,Y) & e(X,Z) & Y < Z.\npanic :- hub(X) & f(X).", "e", false},
		{"m(X) :- f(X).\npanic :- e(X,Y) & not m(Y).", "e", true},
		{"link(X,Y) :- e(X,Y).\npanic :- e(X,Y) & not link(Y,X).", "e", false},
		{"ok(1).\npanic :- e(X,Y) & f(X) & not ok(Y).", "e", true},
		{"bad(X) :- e(X,X).\nbad(X) :- f(X) & e(X,Y) & Y < X.\npanic :- bad(X) & g(X).", "e", true},
		{"ok(1).\npanic :- e(X,Y) & ok(X) & not f(Y).", "e", true},
		{"same(X,X) :- g(X).\npanic :- e(A,B) & same(A,B) & f(A).", "e", true},
		{"out(X) :- e(X,Y).\npanic :- f(X) & not out(X).", "f", false},
		{"m(X,1) :- f(X).\npanic :- e(X,Y) & not m(X,Y).", "e", false},
	} {
		p := parser.MustParseProgram(s.src)
		out = append(out, fuzzShape{prog: p, arity: p.Preds(), local: s.local, cert: s.cert})
	}
	return out
}()

// fuzzTuple reads an arity-ar tuple over {0,1,2} out of one byte; three
// values keep X = Y, duplicates and absent deletes frequent. Under strs the
// third value is the string b, which sorts after every number.
func fuzzTuple(b byte, ar int, strs bool) relation.Tuple {
	t := make(relation.Tuple, ar)
	for i := range t {
		t[i] = ast.Int(int64(b % 3))
		if strs && b%3 == 2 {
			t[i] = ast.Str("b")
		}
		b /= 3
	}
	return t
}

// fuzzSpan is how many bytes name distinct arity-ar tuples: 3^ar.
func fuzzSpan(ar int) byte {
	span := byte(1)
	for ; ar > 0; ar-- {
		span *= 3
	}
	return span
}

// scanned is res with its range steps fetching their candidates by scan:
// the plan as it would run without ordered indexes.
func scanned(res *Residual) *Residual {
	out := *res
	out.disjuncts = make([]*disjunct, len(res.disjuncts))
	for i, d := range res.disjuncts {
		out.disjuncts[i] = &disjunct{guards: d.guards, plan: d.plan.Unranged(), cert: d.cert}
	}
	return &out
}

// fuzzPairs is how many (relation, tuple) byte pairs make the pre-state;
// the pairs after them rewrite the remote relations.
const fuzzPairs = 8

// FuzzResidualPreState holds the compiled residual, run on the database
// before the update, to brute-force grounding of the constraint on an
// updated copy (internal/eval/naive, which shares no code with the engine
// the residual runs on): bytes choose a shape, an update (either polarity, any relation
// of the shape) and a small pre-state, which is discarded if it violates
// the constraint — the premise of the residual argument. Up to three
// earlier members of a batch may come first (byte 0's bits 5–6 say how
// many; the last bytes say which): the residual then decides on the
// pre-state with them pending, against evaluation of a copy with all of
// them and the update applied. Byte 0's high bit
// makes the value 2 the string b, so ranges cross from numbers to
// strings; byte 1's high bit leaves the relations uncreated unless a tuple
// creates them, the "relation unseen at compile time" arm. The database
// must come out of Decide as it went in, and a plan's range steps must
// read no more of it than scans in their place.
//
// Each residual is compiled three ways, through a cache that malformed
// updates of the same pattern reached first: as an embedded checker does,
// on the scan arm, and with the shape's locality, which is what compiles
// local certificates. A certificate hit claims more than the verdict: the
// insert is safe whatever the remote relations hold. So on a hit the
// remote relations are rewritten — emptied, and to what the bytes after
// the pre-state say — and wherever the constraint still holds before the
// insert it must hold after.
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
						for _, strs := range []byte{0, 0x80} {
							f.Add(append([]byte{strs | byte(s), absent | flags, tu}, pre...))
						}
					}
				}
			}
		}
	}
	// The certificate grid: every certified shape, an insert into its local
	// relation, one stored tuple of it that may or may not be a witness —
	// it differs from the update in any subset of columns — and remote
	// relations that hold everything, nothing, or one value: what makes a
	// certificate that forgot a join column, the occurrence's constant or a
	// second occurrence say "safe" of an insert that is not.
	for s, sh := range fuzzShapes {
		rels := sh.prog.EDBPreds()
		li := 0
		for i, rel := range rels {
			if rel == sh.local {
				li = i
			}
		}
		span := fuzzSpan(sh.arity[sh.local])
		for tu := byte(0); tu < span; tu += 3 { // first column 0
			for w := byte(1); w < span; w += 3 { // first column 1
				for fill := 0; fill < 5; fill++ {
					seed := []byte{byte(s), byte(li)<<1 | 1, tu, byte(li), w}
					for ri, rel := range rels {
						if rel == sh.local {
							continue
						}
						rspan := byte(1)
						for i := 0; i < sh.arity[rel]; i++ {
							rspan *= 3
						}
						for v := byte(0); v < rspan && len(seed) < 3+2*fuzzPairs; v++ {
							// 0: everything; 1: nothing; 2–4: tuples starting with one value.
							if fill == 0 || fill >= 2 && int(v%3) == fill-2 {
								seed = append(seed, byte(ri), v)
							}
						}
					}
					f.Add(seed)
				}
			}
		}
	}
	// The sequence grid: every certified shape, an insert into its local
	// relation after one earlier member that inserts a tuple that may be
	// its witness, or deletes a stored one, over remote relations that hold
	// every tuple starting with 0 — what makes a certificate that ignores
	// the earlier members, or trusts a deleted witness, say "safe" of an
	// insert that is not.
	for s, sh := range fuzzShapes {
		if !sh.cert {
			continue
		}
		rels := sh.prog.EDBPreds()
		li := slices.Index(rels, sh.local)
		span := fuzzSpan(sh.arity[sh.local])
		for tu := byte(0); tu < span; tu += 3 {
			for w := byte(1); w < span; w += 3 {
				for _, insert := range []byte{0, 1} {
					seed := []byte{byte(s) | 1<<5, byte(li)<<1 | 1, tu}
					if insert == 0 {
						seed = append(seed, byte(li), w) // the stored tuple the member deletes
					}
					for ri, rel := range rels {
						for v := byte(0); rel != sh.local && v < fuzzSpan(sh.arity[rel]) && len(seed) < 3+2*fuzzPairs; v += 3 {
							seed = append(seed, byte(ri), v)
						}
					}
					f.Add(append(seed, byte(li)<<1|insert, w))
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(16))
	for i := 0; i < 400; i++ {
		b := make([]byte, 3+rng.Intn(30))
		rng.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		sh, strs := fuzzShapes[int(data[0]&0x1f)%len(fuzzShapes)], data[0]&0x80 != 0
		// Bits 5–6 of byte 0: how many earlier members of a batch the update
		// follows, read from the last two bytes each.
		var seq []byte
		if k := int(data[0] >> 5 & 3); len(data) >= 3+2*k {
			data, seq = data[:len(data)-2*k], data[len(data)-2*k:]
		}
		p := sh.prog
		rels := p.EDBPreds()
		pre := store.New()
		if data[1]&0x80 == 0 {
			for _, rel := range rels {
				pre.MustEnsure(rel, sh.arity[rel])
			}
		}
		fill := func(db *store.Store, pairs []byte, keep func(rel string) bool) {
			for i := 0; i+1 < len(pairs) && i < 2*fuzzPairs; i += 2 {
				if rel := rels[int(pairs[i])%len(rels)]; keep(rel) {
					if _, err := db.Insert(rel, fuzzTuple(pairs[i+1], sh.arity[rel], strs)); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		fill(pre, data[3:], func(string) bool { return true })
		holds := func(db *store.Store) bool {
			bad, err := naive.Holds(p, db, ast.PanicPred)
			if err != nil {
				t.Fatal(err)
			}
			return !bad
		}
		if !holds(pre) {
			return
		}
		update := func(a, b byte) store.Update {
			rel := rels[int(a>>1&0x3f)%len(rels)]
			return store.Update{Insert: a&1 == 1, Relation: rel, Tuple: fuzzTuple(b, sh.arity[rel], strs)}
		}
		// The earlier members the batch admitted: mid is pre with them
		// applied, the state the update is decided in; one that would
		// violate the constraint is not a member.
		var prior []store.Update
		mid := pre.Clone()
		for i := 0; i+1 < len(seq); i += 2 {
			w, next := update(seq[i], seq[i+1]), mid.Clone()
			if err := w.Apply(next); err != nil {
				t.Fatal(err)
			}
			if holds(next) {
				prior, mid = append(prior, w), next
			}
		}
		u := update(data[1], data[2])
		post := mid.Clone()
		if err := u.Apply(post); err != nil {
			t.Fatal(err)
		}
		want := !holds(post)
		flat := Flatten(p)
		if flat == nil {
			// A helper the compiler cannot unfold: the global phase decides,
			// and the program as written compiles no check.
			if DeriveShape(p, u.Relation, u.Insert).Eligible {
				t.Fatalf("%s: a check would be compiled for %v without a flat form", p, u)
			}
			return
		}
		if !DeriveShape(flat, u.Relation, u.Insert).Eligible {
			t.Fatalf("%s: the flat form refuses %v", flat, u)
		}
		local := func(rel string) bool { return rel == sh.local }
		before, names, version := pre.Dump(), pre.Names(), pre.DataVersion(u.Relation)
		rendered := ""
		for _, opts := range []Options{{}, {DisableIndexes: true}, {Local: local}} {
			// The pattern's program holds one check per arity, as a checker
			// compiles them: the malformed updates of the pattern — a column
			// more, a column less — match no occurrence and are safe, and the
			// check of u's arity is its own.
			for _, tu := range []relation.Tuple{append(u.Tuple[:len(u.Tuple):len(u.Tuple)], ast.Int(0)), u.Tuple[:len(u.Tuple)-1]} {
				if res := Compile(flat, u.Relation, u.Insert, len(tu), opts); res.Decide(pre, tu) {
					t.Fatalf("%+v: malformed %v%v decided a violation", opts, u.Relation, tu)
				}
			}
			res := Compile(flat, u.Relation, u.Insert, len(u.Tuple), opts)
			// The residual decides on pre with the earlier members pending.
			decide := func(r *Residual) bool {
				if len(prior) == 0 {
					return r.Decide(pre, u.Tuple)
				}
				violated, _ := r.DecideWitness(pre, prior, u.Tuple)
				return violated
			}
			pre.ResetReads()
			if got := decide(res); got != want {
				t.Fatalf("%+v: residual on the pre-state says violated=%v, evaluation of the updated copy %v\nconstraint: %s\nearlier members: %v\nupdate: %v\npre-state:\n%s",
					opts, got, want, p, prior, u, before)
			}
			if !opts.DisableIndexes && opts.Local == nil {
				// The same plan with its ranges fetched by scan decides alike,
				// and reads no less.
				ranged := pre.TotalReads()
				pre.ResetReads()
				if got := decide(scanned(res)); got != want {
					t.Fatalf("%v decided violated=%v with its ranges scanned, evaluation %v\nconstraint: %s\npre-state:\n%s", u, got, want, p, before)
				}
				if scan := pre.TotalReads(); ranged > scan {
					t.Fatalf("deciding %v read %d tuples ranged, %d scanned\nconstraint: %s\npre-state:\n%s", u, ranged, scan, p, before)
				}
			}
			// A certificate is no literal: the residual renders as the same
			// program with and without (the scan arm orders atoms its own way).
			if prog := res.Program(u.Tuple).String(); !opts.DisableIndexes {
				if rendered == "" {
					rendered = prog
				} else if prog != rendered {
					t.Fatalf("residual of %v renders as\n%s\nwith certificates and as\n%s\nwithout", u, prog, rendered)
				}
			}
			certifiable := opts.Local != nil && sh.cert && u.Insert && u.Relation == sh.local
			if n := res.Certificates(); (n > 0) != (certifiable && res.Disjuncts() > 0) {
				t.Fatalf("%+v: %d certificates compiled for %v under\n%s", opts, n, u, p)
			}
			if res.Certificates() == 0 {
				// The same residual on the updated database: the adjustment is
				// idempotent.
				if got := res.Decide(post, u.Tuple); got != want {
					t.Fatalf("%+v: residual on the post-state says violated=%v, evaluation %v\nconstraint: %s\nupdate: %v\npre-state:\n%s",
						opts, got, want, p, u, before)
				}
				continue
			}
			cert := res.Certified(pre, prior, u.Tuple)
			witness := cert.Tuple()
			if _, w := res.DecideWitness(pre, prior, u.Tuple); !w.Tuple().Equal(witness) || w.Found() != cert.Found() {
				t.Fatalf("Certified finds %v, DecideWitness %v", witness, w.Tuple())
			}
			if !cert.Found() {
				continue
			}
			if !mid.Contains(sh.local, witness) {
				t.Fatalf("witness %v of %v is not stored once %v are applied", witness, u, prior)
			}
			// The hit holds for every state of the remote relations.
			var tail []byte
			if len(data) > 3+2*fuzzPairs {
				tail = data[3+2*fuzzPairs:]
			}
			for _, remote := range [][]byte{nil, tail} {
				alt := store.New()
				for _, s := range mid.Tuples(sh.local) {
					if _, err := alt.Insert(sh.local, s); err != nil {
						t.Fatal(err)
					}
				}
				fill(alt, remote, func(rel string) bool { return rel != sh.local })
				if !holds(alt) {
					continue
				}
				if err := u.Apply(alt); err != nil {
					t.Fatal(err)
				}
				if !holds(alt) {
					t.Fatalf("%v certified by %v, yet it violates\n%s\nover\n%s", u, witness, p, alt.Dump())
				}
			}
		}
		if pre.Dump() != before || !slices.Equal(pre.Names(), names) || pre.DataVersion(u.Relation) != version {
			t.Fatalf("deciding %v wrote the database", u)
		}
	})
}
