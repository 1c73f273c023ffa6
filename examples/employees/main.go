// Employees: the paper's running example database (Sections 2 and 4).
// It manages all four example constraints — including the recursive
// "nobody is their own boss" query — and replays the paper's worked
// updates: inserting toy into dept (Example 4.1) and deleting
// (jones,shoe,50) from emp (Example 4.2), showing the rewritten
// constraints and the subsumption checks the paper performs.
//
//	go run ./examples/employees
package main

import (
	"fmt"
	"log"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/rewrite"
	"repro/internal/store"
	"repro/internal/subsume"
)

func main() {
	db := store.New()
	if err := db.LoadFacts(parser.MustParseProgram(`
		dept(toy). dept(shoe). dept(sales). dept(accounting).
		salRange(toy, 10, 60). salRange(shoe, 20, 80).
		salRange(sales, 30, 90). salRange(accounting, 30, 90).
		emp(jones, shoe, 50).
		emp(ann, toy, 40).
		emp(bob, sales, 60).
		manager(toy, bob). manager(shoe, bob). manager(sales, carol).
	`)); err != nil {
		log.Fatal(err)
	}

	chk := core.New(db, core.Options{})
	constraints := map[string]string{
		// Example 2.2: low-paid employees must be in a known department.
		"known-dept": "panic :- emp(E,D,S) & not dept(D) & S < 100.",
		// Example 2.3: salary within the department range.
		"range": `panic :- emp(E,D,S) & salRange(D,Low,High) & S < Low.
		          panic :- emp(E,D,S) & salRange(D,Low,High) & S > High.`,
		// Example 2.4: no one is their own boss (recursive).
		"no-self-boss": `panic :- boss(E,E).
		                 boss(E,M) :- emp(E,D,S) & manager(D,M).
		                 boss(E,F) :- boss(E,G) & boss(G,F).`,
	}
	for name, src := range constraints {
		if err := chk.AddConstraintSource(name, src); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Println("constraints loaded:", chk.Constraints())

	// --- Example 4.1: insert toy into dept ------------------------------
	c1 := parser.MustParseProgram("panic :- emp(E,D,S) & not dept(D).")
	fmt.Println("\nExample 4.1: rewriting C1 for the insertion of toy into dept")
	c3, err := rewrite.Insert(c1, "dept", relation.Strs("toy"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("C3 (C1 after the insertion, over the old database):")
	fmt.Println(indent(c3.String()))
	res, err := subsume.Subsumes(c3, []*ast.Program{c1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C3 ⊑ C1?  %s (method %s)  — the insertion cannot violate C1\n", res.Verdict, res.Method)

	// --- Example 4.2: delete (jones,shoe,50) from emp --------------------
	fmt.Println("\nExample 4.2: rewriting for the deletion of (jones,shoe,50) from emp")
	tup := relation.TupleOf(ast.Str("jones"), ast.Str("shoe"), ast.Int(50))
	c4, err := rewrite.DeleteArith(c1, "emp", tup)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("C4 (arithmetic <>-split encoding):")
	fmt.Println(indent(c4.String()))
	res, err = subsume.Subsumes(c4, []*ast.Program{c1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C4 ⊑ C1?  %s (method %s)  — the deletion cannot violate C1\n", res.Verdict, res.Method)

	c5, err := rewrite.DeleteNeg(c1, "emp", tup)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("C5 (negated-subgoal encoding, the isJones trick):")
	fmt.Println(indent(c5.String()))

	// --- Live updates through the pipeline -------------------------------
	fmt.Println("\nLive updates:")
	updates := []store.Update{
		// A new department: certified from constraints+update alone.
		store.Ins("dept", relation.Strs("research")),
		// A valid hire and an under-range hire (Example 2.3's constraint).
		store.Ins("emp", relation.TupleOf(ast.Str("dina"), ast.Str("toy"), ast.Int(55))),
		store.Ins("emp", relation.TupleOf(ast.Str("earl"), ast.Str("toy"), ast.Int(5))), // below salRange(toy): rejected
		// ann (toy dept) will run research; frank joins research.
		store.Ins("manager", relation.Strs("research", "ann")),
		store.Ins("emp", relation.TupleOf(ast.Str("frank"), ast.Str("research"), ast.Int(50))),
		// Making frank the manager of toy closes the cycle
		// frank -> ann (research) -> frank (toy): rejected by the
		// recursive no-self-boss constraint (Example 2.4).
		store.Ins("manager", relation.Strs("toy", "frank")),
	}
	for _, u := range updates {
		rep, err := chk.Apply(u)
		if err != nil {
			log.Fatal(err)
		}
		status := "applied"
		if !rep.Applied {
			status = fmt.Sprintf("REJECTED %v", rep.Violations())
		}
		fmt.Printf("  %-32s %s\n", u, status)
	}
	if bad := chk.CheckAll(); len(bad) > 0 {
		log.Fatalf("invariant broken: %v", bad)
	}
	fmt.Println("\nall constraints hold; phase stats:", chk.Stats().ByPhase)
}

func indent(s string) string {
	out := ""
	for _, line := range splitLines(s) {
		out += "    " + line + "\n"
	}
	return out[:len(out)-1]
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	return append(out, s[start:])
}
