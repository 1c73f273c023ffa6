package core

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/store"
)

// TestResidualTraceEvents pins the trace shape of residual dispatch: one
// decided phase event per constraint, phase "residual", carrying the
// cache status — hit from the first decision on: AddConstraint compiled
// the check — and the verdict: the :explain surface ccshell renders.
func TestResidualTraceEvents(t *testing.T) {
	buf := obs.NewBufferTracer(8)
	c := newChecker(t, "emp(ann,toy,50). dept(toy).", Options{Tracer: buf})
	for _, k := range []struct{ name, src string }{
		{"ri", "panic :- emp(E,D,S) & not dept(D)."},
		{"cap", "panic :- emp(E,D,S) & S > 100."},
	} {
		if err := c.AddConstraintSource(k.name, k.src); err != nil {
			t.Fatal(err)
		}
	}
	find := func(ev []obs.Event, constraint string) obs.Event {
		t.Helper()
		for _, e := range ev {
			if e.Kind == obs.KindPhase && e.Constraint == constraint {
				return e
			}
		}
		t.Fatalf("no phase event for %s in %v", constraint, ev)
		return obs.Event{}
	}

	// First decision of the pattern: both constraints decided by the
	// residual AddConstraint compiled.
	if _, err := c.Apply(store.Ins("emp", relation.TupleOf(ast.Str("bob"), ast.Str("toy"), ast.Int(60)))); err != nil {
		t.Fatal(err)
	}
	ev := buf.Last()
	for _, name := range []string{"ri", "cap"} {
		e := find(ev, name)
		if e.Phase != "residual" || !e.Decided || e.Verdict != "holds" || e.Cache != obs.CacheHit {
			t.Errorf("first %s event = %+v, want decided residual holds/hit", name, e)
		}
	}

	// Same relation and polarity, different tuple: the same check.
	if _, err := c.Apply(store.Ins("emp", relation.TupleOf(ast.Str("cid"), ast.Str("toy"), ast.Int(70)))); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ri", "cap"} {
		if e := find(buf.Last(), name); e.Cache != obs.CacheHit {
			t.Errorf("warm %s cache = %q, want hit", name, e.Cache)
		}
	}

	// A violation carries the VIOLATED verdict and the rejection bracket.
	rep, err := c.Apply(store.Ins("emp", relation.TupleOf(ast.Str("eve"), ast.Str("toy"), ast.Int(500))))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied {
		t.Fatal("violating update applied")
	}
	ev = buf.Last()
	if e := find(ev, "cap"); e.Verdict != "VIOLATED" {
		t.Errorf("violating cap event = %+v", e)
	}
	end := ev[len(ev)-1]
	if end.Kind != obs.KindUpdateEnd || end.Applied || len(end.Rejected) != 1 || end.Rejected[0] != "cap" {
		t.Errorf("end event = %+v, want rejected [cap]", end)
	}
}

// TestResidualMetrics: cc_residual_compiled counts the checks
// AddConstraint compiled, and residual decisions land in the
// decisions_total family.
func TestResidualMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := newChecker(t, "dept(toy).", Options{Metrics: reg})
	if err := c.AddConstraintSource("cap", "panic :- emp(E,D,S) & S > 100."); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 3; i++ {
		if _, err := c.Apply(store.Ins("emp", relation.TupleOf(ast.Str("e"), ast.Str("toy"), ast.Int(i)))); err != nil {
			t.Fatal(err)
		}
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		`cc_checker_decisions_total{phase="residual"} 3`,
		"cc_residual_compiled 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	for _, gone := range []string{"cc_residual_hits", "cc_residual_misses", "cc_plan_cache_hits", "cc_plan_cache_misses"} {
		if strings.Contains(out, gone) {
			t.Errorf("exposition has the cache gauge %s", gone)
		}
	}
}
