package core

import (
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
)

const bannedHub = "hub(X) :- edge(X,Y) & edge(X,Z) & Y < Z.\npanic :- hub(X) & banned(X)."

// A constraint decided by the compiled check of its expansion is
// explained as written: the report, the trace and the program the checker
// holds name it and render its source, and no variable the expansion
// introduces (Y@1) reaches any of them.
func TestExpandedConstraintExplainsAsWritten(t *testing.T) {
	buf := obs.NewBufferTracer(4)
	c := newChecker(t, "edge(8,1). banned(8).", Options{Tracer: buf})
	if err := c.AddConstraintSource("banned-hub", bannedHub); err != nil {
		t.Fatal(err)
	}
	k := c.constraints[0]
	if k.flat == nil || k.flat == k.Prog {
		t.Fatalf("banned-hub was not expanded: flat=%v", k.flat)
	}
	if got, want := k.Prog.String(), parser.MustParseProgram(bannedHub).String(); got != want {
		t.Fatalf("the checker holds\n%s\nwant the source\n%s", got, want)
	}
	for _, step := range []struct {
		u    store.Update
		want Verdict
	}{
		{store.Ins("edge", relation.Ints(8, 2)), Violated}, // 8 becomes a hub, and is banned
		{store.Ins("edge", relation.Ints(9, 2)), Holds},
	} {
		for _, decide := range []func(store.Update) (Report, error){c.Check, c.Apply} {
			rep, err := decide(step.u)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Decisions) != 1 || rep.Decisions[0] != (Decision{"banned-hub", PhaseResidual, step.want}) {
				t.Fatalf("%v: decisions %+v, want banned-hub decided by its residual: %v", step.u, rep.Decisions, step.want)
			}
			if step.want == Violated && strings.Join(rep.Violations(), " ") != "banned-hub" {
				t.Fatalf("%v: violations %v", step.u, rep.Violations())
			}
			var sb strings.Builder
			obs.WriteText(&sb, buf.Last())
			text := sb.String()
			if !strings.Contains(text, "banned-hub   residual     decided: "+step.want.String()) {
				t.Fatalf("%v: the explanation does not name the constraint as decided:\n%s", step.u, text)
			}
			for _, e := range buf.Last() {
				if e.Constraint != "" && e.Constraint != "banned-hub" {
					t.Fatalf("%v: event names %q", step.u, e.Constraint)
				}
			}
			if out := text + k.Prog.String(); strings.Contains(out, "@") {
				t.Fatalf("%v: an expansion variable reached the explanation:\n%s", step.u, out)
			}
		}
	}
}

// The expansion of a self-joining helper joins the stored relation with
// itself: a new edge feeds both occurrences, the rest of a disjunct is
// not the same before and after the insert, and no certificate is
// compiled (DESIGN "Local certificates") — even with banned remote.
func TestSelfJoinExpansionCompilesNoCertificate(t *testing.T) {
	c := newChecker(t, "edge(8,1). edge(7,1). banned(8).", Options{LocalRelations: []string{"edge"}})
	if err := c.AddConstraintSource("banned-hub", bannedHub); err != nil {
		t.Fatal(err)
	}
	u := store.Ins("edge", relation.Ints(7, 1)) // a duplicate: a stored tuple agrees with it everywhere
	rep, err := c.Check(u)
	if err != nil || !rep.Applied || rep.Decisions[0].Phase != PhaseResidual || rep.Witnesses != nil {
		t.Fatalf("%+v %v, want held by the residual with no witness", rep, err)
	}
	res := c.programOf(u).steps[0].check
	if res.Disjuncts() != 2 || res.Certificates() != 0 {
		t.Fatalf("%d disjuncts, %d certificates; want the two occurrences of edge, no certificate", res.Disjuncts(), res.Certificates())
	}
	if pr := c.Plan(u); pr.Witnesses != nil {
		t.Fatalf("plan %+v, want no witness", pr)
	}
}
