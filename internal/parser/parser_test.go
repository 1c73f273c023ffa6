package parser

import (
	"strings"
	"testing"

	"repro/internal/ast"
)

func TestParsePaperExamples(t *testing.T) {
	// Every constraint from the paper's Section 2 examples must parse,
	// and re-printing must round-trip through the parser.
	srcs := []string{
		// Example 2.1
		"panic :- emp(E,sales) & emp(E,accounting).",
		// Example 2.2
		"panic :- emp(E,D,S) & not dept(D) & S < 100.",
		// Example 2.3
		`panic :- emp(E,D,S) & salRange(D,Low,High) & S < Low.
		 panic :- emp(E,D,S) & salRange(D,Low,High) & S > High.`,
		// Example 2.4
		`panic :- boss(E,E).
		 boss(E,M) :- emp(E,D,S) & manager(D,M).
		 boss(E,F) :- boss(E,G) & boss(G,F).`,
		// Example 4.1 rewritten constraint C3
		`dept1(D) :- dept(D).
		 dept1(toy).
		 panic :- emp(E,D,S) & not dept1(D).`,
		// Example 4.2 deletion rewriting
		`emp1(E,D,S) :- emp(E,D,S) & E<>jones.
		 emp1(E,D,S) :- emp(E,D,S) & D<>shoe.
		 emp1(E,D,S) :- emp(E,D,S) & S<>50.`,
		// Fig 6.1: the paper's ok(A,B) rule is range-unrestricted (A and B
		// are bound by the query, the inserted tuple), so we parse its
		// instantiated form, which is what internal/icq generates.
		`interval(X,Y) :- l(X,Y).
		 interval(X,Y) :- interval(X,W) & interval(Z,Y) & Z <= W.
		 ok :- interval(X,Y) & X <= 4 & 8 <= Y.`,
	}
	for _, src := range srcs {
		// Note: arities must be consistent within one program; Example 2.1
		// uses emp/2 while 2.2 uses emp/3, so each parses separately.
		prog, err := ParseProgram(src)
		if err != nil {
			t.Errorf("ParseProgram(%q): %v", src, err)
			continue
		}
		printed := prog.String()
		prog2, err := ParseProgram(printed)
		if err != nil {
			t.Errorf("round-trip reparse of %q failed: %v", printed, err)
			continue
		}
		if prog2.String() != printed {
			t.Errorf("round-trip not fixed-point:\n%s\nvs\n%s", printed, prog2.String())
		}
	}
}

func TestParseConstraintHead(t *testing.T) {
	if _, err := ParseConstraint("panic :- r(X)."); err != nil {
		t.Errorf("valid constraint rejected: %v", err)
	}
	if _, err := ParseConstraint("q(X) :- r(X)."); err == nil {
		t.Error("non-panic head accepted as constraint")
	}
	if _, err := ParseConstraint("panic(X) :- r(X)."); err == nil {
		t.Error("non-0-ary panic accepted as constraint")
	}
}

func TestParseTermKinds(t *testing.T) {
	r := MustParseRule(`panic :- p(X, toy, 42, -3, 4.5, "New York").`)
	args := r.Body[0].Atom.Args
	if !args[0].IsVar() || args[0].Var != "X" {
		t.Errorf("arg0 = %v, want var X", args[0])
	}
	if !args[1].Equal(ast.CStr("toy")) {
		t.Errorf("arg1 = %v, want toy", args[1])
	}
	if !args[2].Equal(ast.CInt(42)) {
		t.Errorf("arg2 = %v, want 42", args[2])
	}
	if !args[3].Equal(ast.CInt(-3)) {
		t.Errorf("arg3 = %v, want -3", args[3])
	}
	if !args[4].Equal(ast.C(ast.Rat(9, 2))) {
		t.Errorf("arg4 = %v, want 4.5", args[4])
	}
	if !args[5].Equal(ast.CStr("New York")) {
		t.Errorf("arg5 = %v, want \"New York\"", args[5])
	}
}

func TestParseComparisons(t *testing.T) {
	r := MustParseRule("panic :- p(A,B) & A < B & A <= B & A = B & A <> B & A >= B & A > B & A != B.")
	comps := r.Comparisons()
	want := []ast.CompOp{ast.Lt, ast.Le, ast.Eq, ast.Ne, ast.Ge, ast.Gt, ast.Ne}
	if len(comps) != len(want) {
		t.Fatalf("got %d comparisons, want %d", len(comps), len(want))
	}
	for i, c := range comps {
		if c.Op != want[i] {
			t.Errorf("comparison %d: op = %v, want %v", i, c.Op, want[i])
		}
	}
}

func TestParseConstantComparison(t *testing.T) {
	// Constants may appear on either side of a comparison.
	r := MustParseRule("panic :- emp(E,D,S) & D <> toy & 100 > S.")
	comps := r.Comparisons()
	if !comps[0].Right.Equal(ast.CStr("toy")) {
		t.Errorf("rhs = %v, want toy", comps[0].Right)
	}
	if !comps[1].Left.Equal(ast.CInt(100)) {
		t.Errorf("lhs = %v, want 100", comps[1].Left)
	}
}

func TestParseFacts(t *testing.T) {
	prog := MustParseProgram("dept(toy). dept(shoe). emp(jones, shoe, 50).")
	if len(prog.Rules) != 3 {
		t.Fatalf("got %d rules, want 3", len(prog.Rules))
	}
	for _, r := range prog.Rules {
		if !r.IsFact() {
			t.Errorf("%s is not a fact", r)
		}
	}
}

func TestParseCommaSeparator(t *testing.T) {
	a := MustParseRule("panic :- p(X) & q(X).")
	b := MustParseRule("panic :- p(X), q(X).")
	if a.String() != b.String() {
		t.Errorf("comma and ampersand separators parse differently: %s vs %s", a, b)
	}
}

func TestParseComments(t *testing.T) {
	prog := MustParseProgram(`
		% referential integrity
		panic :- emp(E,D,S) & not dept(D). // C1
	`)
	if len(prog.Rules) != 1 {
		t.Fatalf("got %d rules, want 1", len(prog.Rules))
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"panic :- ",                      // missing body
		"panic :- p(X",                   // unterminated args
		"panic :- p(X) q(X).",            // missing separator
		"panic :- p(X) & .",              // empty literal
		"panic :- p(X) & X < .",          // missing rhs
		"panic :- not X < 3.",            // not applies to atoms only
		"panic :- p(X). panic :- p(X,Y)", // arity clash
		`panic :- "unterminated`,         // unterminated string
		"panic :- q(Y).",                 // unsafe: head ok but... actually safe; use neg
	}
	// Replace the last with a genuinely invalid one.
	bad[len(bad)-1] = "p(X) :- q(Y)." // unsafe head variable
	for _, src := range bad {
		if _, err := ParseProgram(src); err == nil {
			t.Errorf("ParseProgram(%q) succeeded, want error", src)
		}
	}
}

// TestParseRefusesHugeNumber: a constant needing more than
// ast.MaxNumberDigits digits is refused where it stands, before big.Rat
// expands it.
func TestParseRefusesHugeNumber(t *testing.T) {
	ok := "panic :- r(X) & X > " + strings.Repeat("9", ast.MaxNumberDigits) + "."
	if _, err := ParseProgram(ok); err != nil {
		t.Fatalf("%d-digit constant: %v", ast.MaxNumberDigits, err)
	}
	_, err := ParseProgram("p(a).\npanic :- r(X) &\n  X > " + strings.Repeat("9", ast.MaxNumberDigits+1) + ".")
	if err == nil || !strings.HasPrefix(err.Error(), "parser: line 3, col 7: bad number") {
		t.Fatalf("%d-digit constant: err = %.80v, want it refused at line 3, col 7", ast.MaxNumberDigits+1, err)
	}
}

// FuzzParseProgram: the parser never panics, and what it accepts prints
// to source that parses back to the same program.
func FuzzParseProgram(f *testing.F) {
	for _, seed := range []string{
		"panic :- emp(E,D,S) & not dept(D) & S < 100.",
		"boss(E,M) :- emp(E,D,S) & manager(D,M).\npanic :- boss(E,E).",
		`dept1(toy). p("New York", -2.5, 1/3, 1.5e-05).`,
		"panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y.",
		`panic :- p(X) & X <> "not" & toy <> X. // comment`,
		`p("a\"b\\c"). q(é). % comment`,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := ParseProgram(src)
		if err != nil {
			return
		}
		back, err := ParseProgram(prog.String())
		if err != nil {
			t.Fatalf("%q printed as %q, which does not parse: %v", src, prog.String(), err)
		}
		if len(back.Rules) != len(prog.Rules) {
			t.Fatalf("%q printed as %q: %d rules, then %d", src, prog.String(), len(prog.Rules), len(back.Rules))
		}
		for i, r := range prog.Rules {
			if !r.Equal(back.Rules[i]) {
				t.Fatalf("%q printed as %q: rule %d came back as %s", src, prog.String(), i, back.Rules[i])
			}
		}
	})
}

func TestParseOmittedFinalPeriod(t *testing.T) {
	r, err := ParseRule("panic :- p(X)")
	if err != nil {
		t.Fatalf("rule without trailing period rejected: %v", err)
	}
	if len(r.Body) != 1 {
		t.Errorf("body length = %d", len(r.Body))
	}
}

func TestParseAtomHelper(t *testing.T) {
	a := MustParseAtom("emp(jones, shoe, 50)")
	if a.Pred != "emp" || a.Arity() != 3 {
		t.Fatalf("atom = %v", a)
	}
	if !a.Args[2].Equal(ast.CInt(50)) {
		t.Errorf("arg2 = %v", a.Args[2])
	}
	if _, err := ParseAtom("emp(a) extra"); err == nil {
		t.Error("trailing input accepted")
	}
}

func TestParseZeroAryBodyAtom(t *testing.T) {
	prog := MustParseProgram("alarm :- panic & p(X).\npanic :- p(X) & X > 3.")
	if len(prog.Rules) != 2 {
		t.Fatalf("rules = %d", len(prog.Rules))
	}
	if prog.Rules[0].Body[0].Atom.Pred != "panic" {
		t.Errorf("first body literal = %v", prog.Rules[0].Body[0])
	}
}

func TestParseLargeProgram(t *testing.T) {
	// The parser must handle programs with many rules without stack or
	// state issues.
	var sb strings.Builder
	for i := 0; i < 500; i++ {
		sb.WriteString("panic :- r(X) & X > ")
		sb.WriteString(string(rune('0' + i%10)))
		sb.WriteString(".\n")
	}
	prog, err := ParseProgram(sb.String())
	if err != nil {
		t.Fatalf("large program: %v", err)
	}
	if len(prog.Rules) != 500 {
		t.Errorf("rules = %d, want 500", len(prog.Rules))
	}
}
