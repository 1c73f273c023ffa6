package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/store"
	"repro/internal/subsume"
)

// helperShape is the differential test's pool with its helper
// constraints, whose facts bring the constants 0 and 1 into the set.
var helperShape = goldenShape{
	name: "helpers",
	seed: 5,
	build: func(t *testing.T, rng *rand.Rand, db *store.Store, add func(name, src string)) []store.Update {
		us := oracleShape(5).build(t, rng, db, add)
		for _, k := range helperConstraints {
			add(k.name, k.src)
		}
		return us
	},
}

// boundaryValues are the values a guard is hardest on: every constant of
// the set, a value just either side of each, numbers and strings beyond
// every constant, and the two sides of the numbers-before-strings seam.
func boundaryValues(consts []ast.Value) []ast.Value {
	out := []ast.Value{ast.Int(-1000), ast.Int(0), ast.Int(1), ast.Rat(1, 2), ast.Str(""), ast.Str("a"), ast.Str("zz")}
	half := big.NewRat(1, 2)
	for _, c := range consts {
		out = append(out, c)
		if c.Kind == ast.NumberValue {
			out = append(out,
				ast.Value{Kind: ast.NumberValue, Num: new(big.Rat).Sub(c.Num, half)},
				ast.Value{Kind: ast.NumberValue, Num: new(big.Rat).Add(c.Num, half)})
		} else {
			out = append(out, ast.Str(c.Str+"a"))
			if c.Str != "" {
				out = append(out, ast.Str(c.Str[:len(c.Str)-1]))
			}
		}
	}
	return out
}

// boundaryTuples draws tuples of the arity from vals: every one when there
// are few, else every tuple of one repeated value, every tuple of two
// values, and a random sample.
func boundaryTuples(rng *rand.Rand, arity int, vals []ast.Value) []relation.Tuple {
	var out []relation.Tuple
	var all func(t relation.Tuple)
	all = func(t relation.Tuple) {
		if len(t) == arity {
			out = append(out, t)
			return
		}
		for _, v := range vals {
			all(append(t[:len(t):len(t)], v))
		}
	}
	if arity <= 2 {
		all(nil)
		return out
	}
	for _, v := range vals {
		for _, w := range vals {
			t := make(relation.Tuple, arity)
			for p := range t {
				t[p] = v
			}
			t[rng.Intn(arity)] = w
			out = append(out, t)
		}
	}
	for i := 0; i < 200; i++ {
		t := make(relation.Tuple, arity)
		for p := range t {
			t[p] = vals[rng.Intn(len(vals))]
		}
		out = append(out, t)
	}
	return out
}

// TestGuardAgreesWithSection4: on every pattern a constraint set mentions
// where phase 2 has something to say — the constraint mentions the
// relation and the direction is not monotone-safe — the compiled guard
// admits exactly the tuples per-tuple Section 4 (rewrite.UpdateSafeAmong,
// the DisableCache arm) certifies: every tuple of the golden streams, and
// boundary tuples — values equal to a set constant or just beside one,
// numbers and strings mixed, relevant values equal to each other. A
// pattern past guardTypeCap has no guard and is skipped: it has no
// phase-2 test by design.
func TestGuardAgreesWithSection4(t *testing.T) {
	compared, certified := 0, 0
	for _, sh := range append(goldenShapes[:len(goldenShapes):len(goldenShapes)], helperShape) {
		db := store.New()
		c := New(db, sh.opts)
		us := sh.build(t, rand.New(rand.NewSource(sh.seed)), db, func(name, src string) { _ = c.AddConstraintSource(name, src) })
		rng := rand.New(rand.NewSource(sh.seed))
		vals := boundaryValues(c.consts)
		var keys []progKey
		for key := range c.programs {
			keys = append(keys, key)
		}
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		for _, key := range keys {
			tuples := boundaryTuples(rng, key.arity, vals)
			for _, u := range us {
				if u.Relation == key.rel && u.Insert == key.insert && len(u.Tuple) == key.arity {
					tuples = append(tuples, u.Tuple)
				}
			}
			for _, k := range c.constraints {
				if e := buildCacheEntry(k.Prog, key.rel, key.insert); !e.mentions || e.polarity {
					continue
				}
				if _, ok := orderTypes(len(guardPositions(k.Prog, key)), c.consts); !ok {
					continue
				}
				g := c.compileGuard(k, key)
				for _, tu := range tuples {
					u := store.Update{Relation: key.rel, Insert: key.insert, Tuple: tu}
					res, err := rewrite.UpdateSafeAmong(k.Prog, c.progs, u)
					want := err == nil && res.Verdict == subsume.Yes
					if got := g != nil && g.admits(tu); got != want {
						t.Errorf("%s: %s on %v: guard %v, Section 4 %v", sh.name, k.Name, u, got, want)
					}
					compared++
					if want {
						certified++
					}
				}
			}
		}
	}
	// Both verdicts occur: the comparison is not vacuous.
	if certified == 0 || certified == compared {
		t.Fatalf("%d of %d comparisons certified", certified, compared)
	}
	t.Logf("%d comparisons, %d certified", compared, certified)
}

// TestDecisionsRunNoSection4: all of the paper's Section 4 runs when the
// constraint set changes. Driving each golden stream — checks, applies,
// plans and the decisions that finish them — calls
// rewrite.UpdateSafeAmong exactly as often as building the shape's
// checker does, except under Options.DisableCache, whose decisions run it
// per tuple.
func TestDecisionsRunNoSection4(t *testing.T) {
	for _, sh := range goldenShapes {
		before := rewrite.UpdateSafeCalls()
		db := store.New()
		c := New(db, sh.opts)
		sh.build(t, rand.New(rand.NewSource(sh.seed)), db, func(name, src string) { _ = c.AddConstraintSource(name, src) })
		setup := rewrite.UpdateSafeCalls() - before
		before = rewrite.UpdateSafeCalls()
		runGoldenShape(t, sh, true)
		stream := rewrite.UpdateSafeCalls() - before - setup
		if sh.opts.DisableCache {
			if stream == 0 {
				t.Errorf("%s: the reference arm's decisions ran Section 4 %d times, want some", sh.name, stream)
			}
			continue
		}
		if stream != 0 {
			t.Errorf("%s: the stream's decisions ran Section 4 %d times, want 0", sh.name, stream)
		}
	}
}

// TestOrderTypesCount: orderTypes meets every order type once — n values
// placed on or between m constants, those sharing an interval weakly
// ordered — and refuses a count past guardTypeCap.
func TestOrderTypesCount(t *testing.T) {
	consts := func(m int) []ast.Value {
		out := []ast.Value{ast.Int(10), ast.Int(100), ast.Str("boss"), ast.Str("sales"), ast.Str("toy")}
		for i := len(out); i < m; i++ {
			out = append(out, ast.Str(fmt.Sprintf("z%02d", i)))
		}
		return out[:m]
	}
	for _, tc := range []struct{ n, m, want int }{
		{0, 3, 1}, {1, 0, 1}, {1, 1, 3}, {1, 5, 11}, {2, 0, 3}, {2, 1, 13}, {2, 5, 133}, {3, 0, 13}, {3, 1, 75}, {4, 0, 75},
		{5, 0, -1}, {4, 1, -1}, {2, 20, -1},
	} {
		types := map[uint64]bool{}
		g := &orderGuard{pos: []int{0, 1, 2, 3, 4}[:tc.n], consts: consts(tc.m)}
		reps, ok := orderTypes(tc.n, g.consts)
		for _, vals := range reps {
			types[g.code(vals)] = true
		}
		switch {
		case tc.want < 0 && ok:
			t.Errorf("n=%d m=%d: %d types enumerated, want a refusal past the cap", tc.n, tc.m, len(types))
		case tc.want >= 0 && (!ok || len(types) != tc.want || len(reps) != tc.want):
			t.Errorf("n=%d m=%d: %d distinct types (ok %v), want %d", tc.n, tc.m, len(types), ok, tc.want)
		}
	}
}

// TestGuardCodeSeparatesTypes: the phase-2 guard's type code is one
// number per order type of the relevant values — against the set's
// constants and each other — and nothing finer: equal rationals in any
// form, values anywhere inside one interval between constants, and the
// irrelevant positions share a code, while a value on a constant, values
// on either side of it, and a changed comparison between two relevant
// values do not. Computing a code interns nothing and allocates nothing.
func TestGuardCodeSeparatesTypes(t *testing.T) {
	half := ast.Value{Kind: ast.NumberValue, Num: big.NewRat(1, 2)}
	twoQuarters := ast.Value{Kind: ast.NumberValue, Num: big.NewRat(2, 4)}
	huge := ast.Value{Kind: ast.NumberValue, Num: new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 70))}
	g := &orderGuard{pos: []int{0, 2}, consts: []ast.Value{ast.Int(1), ast.Str("b")}}
	code := func(vals ...ast.Value) uint64 { return g.code(relation.Tuple(vals)) }
	same := [][2][]ast.Value{
		{{half, ast.Int(7), half}, {twoQuarters, ast.Str("x"), twoQuarters}},
		{{ast.Int(0), ast.Int(0), half}, {ast.Int(-9), ast.Int(0), ast.Int(0)}},
		{{ast.Int(2), ast.Int(0), huge}, {ast.Str("1"), ast.Int(0), ast.Str("a")}},
		{{ast.Str("c"), ast.Int(0), ast.Str("d")}, {ast.Str("bb"), ast.Int(0), ast.Str("z")}},
	}
	for _, pair := range same {
		if a, b := code(pair[0]...), code(pair[1]...); a != b {
			t.Errorf("%v and %v have one order type, codes %d and %d", pair[0], pair[1], a, b)
		}
	}
	distinct := [][]ast.Value{
		{ast.Int(0), ast.Int(0), ast.Int(0)},
		{ast.Int(0), ast.Int(0), half},
		{half, ast.Int(0), ast.Int(0)},
		{ast.Int(1), ast.Int(0), ast.Int(0)},
		{ast.Int(2), ast.Int(0), ast.Int(0)},
		{ast.Str("1"), ast.Int(0), ast.Str("1")},
		{ast.Str("b"), ast.Int(0), ast.Int(0)},
		{ast.Str("c"), ast.Int(0), ast.Int(0)},
		{ast.Int(0), ast.Int(0), ast.Int(1)},
		{ast.Int(0), ast.Int(0), ast.Str("b")},
		{ast.Str("b"), ast.Int(0), ast.Str("b")},
		{ast.Int(1), ast.Int(0), ast.Int(1)},
	}
	seen := map[uint64]int{}
	for i, vals := range distinct {
		k := code(vals...)
		if j, dup := seen[k]; dup {
			t.Errorf("%v and %v share code %d", distinct[j], vals, k)
		}
		seen[k] = i
	}
	fresh := relation.Strs("never-interned-guard-value", "x", "never-interned-guard-value-2")
	before := relation.InternSize()
	if allocs := testing.AllocsPerRun(100, func() { g.code(fresh) }); allocs != 0 {
		t.Errorf("a type code allocates %v objects", allocs)
	}
	if n := relation.InternSize() - before; n != 0 {
		t.Errorf("computing a code interned %d values", n)
	}
}
