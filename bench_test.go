// Package repro's benchmark harness for the paper's figures and theorems,
// mirroring the experiment index in DESIGN.md. Run with
//
//	go test -bench=. -benchmem
//
// F2.1  BenchmarkFig21Classify
// F4.1  BenchmarkFig41InsertRewrite
// F4.2  BenchmarkFig42DeleteRewrite
// T3    BenchmarkSubsumption
// T5.1  BenchmarkTheorem51 / BenchmarkKlug (the paper's comparison)
// T5.2  BenchmarkLocalTestReductions
// T5.3  BenchmarkRACompile / BenchmarkRALocalTest
// F6.1  BenchmarkIntervalDatalog / BenchmarkIntervalSweep (ablation)
//
// plus substrate micro-benchmarks (implication solver, evaluator,
// negation containment, global phase). End-to-end and per-layer
// performance is measured by the bench/ module, not here.
package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/ast"
	"repro/internal/classify"
	"repro/internal/containment"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/icq"
	"repro/internal/ineq"
	"repro/internal/parser"
	"repro/internal/reduction"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/store"
	"repro/internal/subsume"
	"repro/internal/workload"
)

// --- F2.1 ----------------------------------------------------------------

func BenchmarkFig21Classify(b *testing.B) {
	progs := []*ast.Program{
		parser.MustParseProgram("panic :- emp(E,sales) & emp(E,accounting)."),
		parser.MustParseProgram("panic :- emp(E,D,S) & not dept(D) & S < 100."),
		parser.MustParseProgram(`panic :- boss(E,E).
			boss(E,M) :- emp(E,D,S) & manager(D,M).
			boss(E,F) :- boss(E,G) & boss(G,F).`),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			_ = classify.Classify(p)
		}
	}
}

// --- F4.1 / F4.2 -----------------------------------------------------------

func BenchmarkFig41InsertRewrite(b *testing.B) {
	c := parser.MustParseProgram("panic :- emp(E,D,S) & not dept(D).")
	t := relation.Strs("toy")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rewrite.Insert(c, "dept", t); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig42DeleteRewrite(b *testing.B) {
	c := parser.MustParseProgram("panic :- emp(E,D,S) & not dept(D).")
	t := relation.TupleOf(ast.Str("jones"), ast.Str("shoe"), ast.Int(50))
	b.Run("arith", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rewrite.DeleteArith(c, "emp", t); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("neg", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rewrite.DeleteNeg(c, "emp", t); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- T3 --------------------------------------------------------------------

func BenchmarkSubsumption(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("subgoals=%d", k), func(b *testing.B) {
			c := ast.NewProgram(workload.ChainCQC(k))
			set := []*ast.Program{ast.NewProgram(workload.ChainCQC(k))}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := subsume.Subsumes(c, set)
				if err != nil || res.Verdict != subsume.Yes {
					b.Fatalf("unexpected: %+v %v", res, err)
				}
			}
		})
	}
}

// --- T5.1: Theorem 5.1 vs Klug ----------------------------------------------

func BenchmarkTheorem51(b *testing.B) {
	for _, k := range []int{1, 2, 3, 4, 5} {
		b.Run(fmt.Sprintf("dupPreds=%d", k), func(b *testing.B) {
			c1, c2 := workload.ChainCQC(k), workload.ChainCQC(k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := containment.Theorem51(c1, c2)
				if err != nil || !ok {
					b.Fatalf("unexpected: %v %v", ok, err)
				}
			}
		})
	}
}

func BenchmarkKlug(b *testing.B) {
	// Klug's enumeration grows with the ordered Bell numbers of 2k
	// variables; k=4 already means millions of orders, so the sweep stops
	// earlier than Theorem 5.1's.
	for _, k := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("dupPreds=%d", k), func(b *testing.B) {
			c1, c2 := workload.ChainCQC(k), workload.ChainCQC(k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ok, err := containment.Klug(c1, c2)
				if err != nil || !ok {
					b.Fatalf("unexpected: %v %v", ok, err)
				}
			}
		})
	}
}

// --- T5.2 --------------------------------------------------------------------

func BenchmarkLocalTestReductions(b *testing.B) {
	rule := parser.MustParseConstraint("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.")
	cqc, err := ast.NewCQC(rule, "l")
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("L=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			L := workload.Intervals(rng, n, 20, 200)
			ins := relation.Ints(50, 60)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := reduction.LocalTest(cqc, ins, L); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- T5.3 --------------------------------------------------------------------

func BenchmarkRACompile(b *testing.B) {
	rule := parser.MustParseConstraint("panic :- l(X,Y) & r(Y,W) & s(W,X).")
	ins := relation.Ints(3, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reduction.CompileRA(rule, "l", ins); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRALocalTest(b *testing.B) {
	rule := parser.MustParseConstraint("panic :- l(X,Y) & r(Y,W) & s(W,X).")
	ins := relation.Ints(3, 4)
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("L=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			db := store.New()
			for i := 0; i < n; i++ {
				if _, err := db.Insert("l", relation.Ints(rng.Int63n(50), rng.Int63n(50))); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := reduction.RALocalTest(rule, "l", ins, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- F6.1 ablation -------------------------------------------------------------

func intervalAnalysis(b *testing.B) *icq.Analysis {
	b.Helper()
	rule := parser.MustParseConstraint("panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.")
	cqc, err := ast.NewCQC(rule, "l")
	if err != nil {
		b.Fatal(err)
	}
	a, err := icq.Analyze(cqc)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

func BenchmarkIntervalDatalog(b *testing.B) {
	// The paper's nonlinear Fig 6.1 program materializes O(|L|^2) merged
	// intervals through a derived×derived join; sizes stay small.
	a := intervalAnalysis(b)
	for _, n := range []int{4, 8, 16, 32} {
		b.Run(fmt.Sprintf("L=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			db := store.New()
			for _, t := range workload.Intervals(rng, n, 20, 200) {
				if _, err := db.Insert("l", t); err != nil {
					b.Fatal(err)
				}
			}
			ins := relation.Ints(50, 60)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.CertifyInsertDatalog(ins, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkIntervalDatalogLinear(b *testing.B) {
	// Ablation: the linear merge variant (derived×basis join) scales much
	// further than the paper's nonlinear rule while answering identically.
	a := intervalAnalysis(b)
	for _, n := range []int{8, 32, 128} {
		b.Run(fmt.Sprintf("L=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			db := store.New()
			for _, t := range workload.Intervals(rng, n, 20, 200) {
				if _, err := db.Insert("l", t); err != nil {
					b.Fatal(err)
				}
			}
			ins := relation.Ints(50, 60)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.CertifyInsertDatalogLinear(ins, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkIntervalSweep(b *testing.B) {
	a := intervalAnalysis(b)
	for _, n := range []int{8, 32, 128, 1024, 8192} {
		b.Run(fmt.Sprintf("L=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			L := workload.Intervals(rng, n, 20, 200)
			ins := relation.Ints(50, 60)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := a.CertifyInsert(ins, L); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- substrate micro-benchmarks ----------------------------------------------

func BenchmarkIneqImplies(b *testing.B) {
	z := ast.V("Z")
	premise := []ast.Comparison{
		ast.NewComparison(ast.CInt(4), ast.Le, z),
		ast.NewComparison(z, ast.Le, ast.CInt(8)),
	}
	disjuncts := [][]ast.Comparison{
		{ast.NewComparison(ast.CInt(3), ast.Le, z), ast.NewComparison(z, ast.Le, ast.CInt(6))},
		{ast.NewComparison(ast.CInt(5), ast.Le, z), ast.NewComparison(z, ast.Le, ast.CInt(10))},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ineq.Implies(premise, disjuncts) {
			b.Fatal("implication lost")
		}
	}
}

// BenchmarkImpliesAblation compares the lazy DPLL-style implication
// checker against the textbook DNF expansion on a many-disjunct interval
// instance — the design-choice ablation called out in DESIGN.md.
func BenchmarkImpliesAblation(b *testing.B) {
	z := ast.V("Z")
	mk := func(n int) ([]ast.Comparison, [][]ast.Comparison) {
		premise := []ast.Comparison{
			ast.NewComparison(ast.CInt(0), ast.Le, z),
			ast.NewComparison(z, ast.Le, ast.CInt(int64(2*n))),
		}
		var disjuncts [][]ast.Comparison
		for i := 0; i < n; i++ {
			disjuncts = append(disjuncts, []ast.Comparison{
				ast.NewComparison(ast.CInt(int64(2*i)), ast.Le, z),
				ast.NewComparison(z, ast.Le, ast.CInt(int64(2*i+3))),
			})
		}
		return premise, disjuncts
	}
	for _, n := range []int{4, 8, 12} {
		premise, disjuncts := mk(n)
		b.Run(fmt.Sprintf("dpll/disjuncts=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !ineq.Implies(premise, disjuncts) {
					b.Fatal("implication lost")
				}
			}
		})
		b.Run(fmt.Sprintf("dnf/disjuncts=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if !ineq.ImpliesDNF(premise, disjuncts) {
					b.Fatal("implication lost")
				}
			}
		})
	}
}

func BenchmarkEvalTransitiveClosure(b *testing.B) {
	prog := parser.MustParseProgram(`
		reach(X,Y) :- edge(X,Y).
		reach(X,Y) :- reach(X,Z) & edge(Z,Y).`)
	for _, n := range []int{32, 128} {
		b.Run(fmt.Sprintf("chain=%d", n), func(b *testing.B) {
			db := store.New()
			for i := 0; i < n; i++ {
				if _, err := db.Insert("edge", relation.Ints(int64(i), int64(i+1))); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := eval.Eval(prog, db); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkNegationContainment(b *testing.B) {
	c1 := parser.MustParseConstraint("panic :- emp(E,D) & vip(E) & not dept(D).")
	c2 := parser.MustParseConstraint("panic :- emp(E,D) & not dept(D).")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := containment.ContainsWithNegation(c1, c2)
		if err != nil || !ok {
			b.Fatalf("unexpected: %v %v", ok, err)
		}
	}
}

// BenchmarkGlobalPhase compares the two ways the global phase decides an
// edge insert under the acyclicity constraint — evaluating the constraint
// from scratch with the insert pending (recompute) vs the rounds the
// inserted tuple seeds on a kept fixpoint (delta) — on a forward edge,
// which derives nothing new, and a closing edge, which derives panic.
// The check arms make the same decision through core.Checker.Check, as
// an application embedding the checker does, under both constraints of
// the repository benchmark's embed_recursive workload (acyclicity and
// banned-hub, whose helper compares Y < Z), and under each alone — the
// per-constraint cost of the decision: acyclic's kept-fixpoint rounds,
// banned-hub's compiled check of its expansion. Each iteration is one
// check; the store is never written.
func BenchmarkGlobalPhase(b *testing.B) {
	const acyclic = `
		reach(X,Y) :- edge(X,Y).
		reach(X,Y) :- reach(X,Z) & edge(Z,Y).
		panic :- reach(X,X).`
	prog := parser.MustParseProgram(acyclic)
	for _, n := range []int{8, 64, 128} {
		edges := map[string]relation.Tuple{
			"forward": relation.Ints(int64(n/8), int64(n/2)),
			"closing": relation.Ints(int64(n/2), int64(n/8)),
		}
		for _, kind := range []string{"forward", "closing"} {
			tu := edges[kind]
			seeded := func() *store.Store {
				db := store.New()
				for i := 0; i < n-1; i++ {
					if _, err := db.Insert("edge", relation.Ints(int64(i), int64(i+1))); err != nil {
						b.Fatal(err)
					}
				}
				return db
			}
			b.Run(fmt.Sprintf("recompute/chain=%d/%s", n, kind), func(b *testing.B) {
				db, opts := seeded(), eval.Options{Cache: eval.NewPlanCache()}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					bad, err := eval.GoalHoldsAfter(prog, db, ast.PanicPred, nil, store.Ins("edge", tu), opts)
					if err != nil || bad != (kind == "closing") {
						b.Fatalf("verdict %v, %v", bad, err)
					}
				}
			})
			b.Run(fmt.Sprintf("delta/chain=%d/%s", n, kind), func(b *testing.B) {
				db := seeded()
				g, err := eval.CompileGoal(prog, ast.PanicPred, eval.Options{})
				if err != nil {
					b.Fatal(err)
				}
				fix := g.Fixpoint(db, "edge")
				if fix == nil {
					b.Fatal("no fixpoint")
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if bad := fix.Insert(nil, "edge", tu, false); bad != (kind == "closing") {
						b.Fatalf("verdict %v", bad)
					}
				}
				if !fix.Valid() {
					b.Fatal("deciding an insert moved the store")
				}
			})
			if n != 64 {
				continue
			}
			hub := "hub(X) :- edge(X,Y) & edge(X,Z) & Y < Z.\npanic :- hub(X) & banned(X)."
			for _, set := range []struct {
				suffix string
				cons   [][2]string
			}{
				{"", [][2]string{{"acyclic", acyclic}, {"banned-hub", hub}}},
				{"/acyclic", [][2]string{{"acyclic", acyclic}}},
				{"/banned-hub", [][2]string{{"banned-hub", hub}}},
			} {
				b.Run(fmt.Sprintf("check/chain=%d/%s%s", n, kind, set.suffix), func(b *testing.B) {
					db := seeded()
					if _, err := db.Insert("banned", relation.Ints(int64(n)+1000)); err != nil {
						b.Fatal(err)
					}
					chk := core.New(db, core.Options{})
					for _, k := range set.cons {
						if err := chk.AddConstraintSource(k[0], k[1]); err != nil {
							b.Fatal(err)
						}
					}
					// Only acyclic is violated, by the closing edge.
					admit := kind == "forward" || set.suffix == "/banned-hub"
					u := store.Ins("edge", tu)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						rep, err := chk.Check(u)
						if err != nil || rep.Applied != admit {
							b.Fatalf("report %+v, %v", rep, err)
						}
					}
				})
			}
		}
	}
}
