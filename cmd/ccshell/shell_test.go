package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// run feeds lines to a fresh shell and returns the combined output.
func run(t *testing.T, lines ...string) string {
	t.Helper()
	var sb strings.Builder
	sh := newShell(&sb)
	for _, line := range lines {
		if sh.exec(line) {
			break
		}
	}
	return sb.String()
}

func TestShellScenario(t *testing.T) {
	dir := t.TempDir()
	facts := filepath.Join(dir, "facts.dl")
	if err := os.WriteFile(facts, []byte("dept(toy). emp(ann,toy)."), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t,
		":load "+facts,
		":constraint ri panic :- emp(E,D) & not dept(D).",
		":constraints",
		"+dept(shoe)",
		"+emp(bob,shoe)",
		"+emp(eve,ghost)",
		"? emp(E,D) & dept(D)",
		":check",
		":stats",
		":dump",
	)
	for _, want := range []string{
		"loaded 2 facts",
		"constraint ri registered",
		"ri\n",
		"applied",
		"REJECTED [ri]",
		"(ann,toy)",
		"(bob,shoe)",
		"all constraints hold",
		"updates=3 rejected=1",
		"dept(shoe).",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "eve") {
		t.Errorf("rejected tuple leaked into state:\n%s", out)
	}
}

func TestShellQueryForms(t *testing.T) {
	out := run(t,
		"+p(1)",
		"? p(1)",
		"? p(2)",
		"? p(X) & X > 0",
	)
	if !strings.Contains(out, "yes") {
		t.Errorf("ground query: %q", out)
	}
	if !strings.Contains(out, "no") {
		t.Errorf("failing query: %q", out)
	}
	if !strings.Contains(out, "(1)") {
		t.Errorf("binding query: %q", out)
	}
}

func TestShellErrors(t *testing.T) {
	out := run(t,
		":load /nonexistent/file.dl",
		":constraint bad q(X) :- p(X).",
		"+notground(X)",
		"? p(X",
		":bogus",
		"junk",
	)
	if got := strings.Count(out, "error:"); got < 4 {
		t.Errorf("expected at least 4 errors, got %d:\n%s", got, out)
	}
	if !strings.Contains(out, "unknown command") || !strings.Contains(out, "unrecognized input") {
		t.Errorf("missing dispatch messages:\n%s", out)
	}
}

func TestShellRedundant(t *testing.T) {
	out := run(t,
		":constraint mid panic :- r(Z) & 4 <= Z & Z <= 8.",
		":constraint left panic :- r(Z) & 3 <= Z & Z <= 6.",
		":constraint right panic :- r(Z) & 5 <= Z & Z <= 10.",
		":redundant",
	)
	if !strings.Contains(out, "mid") {
		t.Errorf("redundant constraint not reported:\n%s", out)
	}
}

func TestShellExplain(t *testing.T) {
	if out := run(t, ":explain"); !strings.Contains(out, "no update to explain yet") {
		t.Errorf("empty :explain output: %q", out)
	}
	out := run(t,
		":constraint ri panic :- emp(E,D) & not dept(D).",
		"+dept(toy)",
		"+emp(eve,ghost)",
		":explain",
	)
	// :explain replays only the most recent update: the rejected hire,
	// decided by the compiled residual with its pattern-cache status.
	for _, want := range []string{
		"== +emp(eve,ghost)",
		"ri",
		"residual",
		"cache=",
		"decided: VIOLATED",
		"=> REJECTED [ri]",
	} {
		if !strings.Contains(out, want) {
			t.Errorf(":explain output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "== +dept(toy)") {
		t.Errorf(":explain replayed an earlier update:\n%s", out)
	}
}

// A recursive constraint goes to the global phase; :explain says whether
// the decision rebuilt the constraint's fixpoint or ran on the kept one.
func TestShellExplainGlobalPhase(t *testing.T) {
	steps := []string{
		":constraint acyclic reach(X,Y) :- edge(X,Y).;reach(X,Y) :- reach(X,Z) & edge(Z,Y).;panic :- reach(X,X).",
		"+edge(1,2)",
	}
	out := run(t, append(steps, ":explain")...)
	for _, want := range []string{"global", "cache=miss", "kept fixpoints: hits=0 rebuilds=1 drops=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("first global decision: :explain output missing %q:\n%s", want, out)
		}
	}
	out = run(t, append(steps, "+edge(2,1)", ":explain")...)
	for _, want := range []string{"cache=hit", "=> REJECTED [acyclic]", "kept fixpoints: hits=1 rebuilds=1 drops=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("second global decision: :explain output missing %q:\n%s", want, out)
		}
	}
}

func TestShellQuit(t *testing.T) {
	var sb strings.Builder
	sh := newShell(&sb)
	if !sh.exec(":quit") {
		t.Error(":quit did not end the session")
	}
	if sh.exec("% comment") {
		t.Error("comment ended the session")
	}
}

func TestShellMultiRuleConstraint(t *testing.T) {
	out := run(t,
		":constraint range panic :- emp(E,D,S) & salRange(D,Low,High) & S < Low.;panic :- emp(E,D,S) & salRange(D,Low,High) & S > High.",
		"+salRange(toy,10,60)",
		"+emp(ann,toy,50)",
		"+emp(bob,toy,99)",
	)
	if !strings.Contains(out, "constraint range registered") {
		t.Errorf("multi-rule constraint rejected:\n%s", out)
	}
	if !strings.Contains(out, "REJECTED [range]") {
		t.Errorf("out-of-range hire not rejected:\n%s", out)
	}
}
