package core

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/store"
)

// traceChecker builds the standard tracing fixture: three constraints
// whose deciding phases span the whole pipeline, with l the only
// partially-remote constraint (r lives elsewhere).
func traceChecker(t *testing.T, tracer obs.Tracer, reg *obs.Registry) *Checker {
	t.Helper()
	c := newChecker(t,
		"emp(ann,toy,50). dept(toy). l(3,6). l(5,10). r(100).",
		Options{
			LocalRelations: []string{"l", "emp", "dept"},
			Tracer:         tracer,
			Metrics:        reg,
			// These tests pin the staged pipeline's event stream; the
			// residual trace has its own test in residual_trace_test.go.
			DisableResidual: true,
		})
	for _, k := range []struct{ name, src string }{
		{"ri", "panic :- emp(E,D,S) & not dept(D)."},
		{"cap", "panic :- emp(E,D,S) & S > 100."},
		{"fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."},
	} {
		if err := c.AddConstraintSource(k.name, k.src); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// attempts extracts the (constraint, phase, decided) triples of the
// phase events in emission order.
func attempts(events []obs.Event) []string {
	var out []string
	for _, e := range events {
		if e.Kind != obs.KindPhase {
			continue
		}
		s := e.Constraint + "/" + e.Phase
		if e.Decided {
			s += "!"
		}
		out = append(out, s)
	}
	return out
}

func TestTraceCoversAllPhases(t *testing.T) {
	buf := obs.NewBufferTracer(8)
	c := traceChecker(t, buf, nil)

	apply := func(u store.Update) []obs.Event {
		t.Helper()
		rep, err := c.Apply(u)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Applied {
			t.Fatalf("update %v rejected", u)
		}
		return buf.Last()
	}

	// Insert into dept: ri decided by polarity, the others unaffected.
	ev := apply(store.Ins("dept", relation.Strs("shoe")))
	want := []string{"ri/unaffected", "ri/polarity!", "cap/unaffected!", "fi/unaffected!"}
	if got := attempts(ev); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("dept-insert attempts = %v, want %v", got, want)
	}

	// Insert a low-paid employee: cap certified update-only, ri needs the
	// global phase (negation), fi unaffected. No order type of an emp insert
	// certifies ri, so ri has no phase-2 test. The global event trails the
	// stage-one attempts of every constraint.
	ev = apply(store.Ins("emp", relation.TupleOf(ast.Str("bob"), ast.Str("toy"), ast.Int(60))))
	want = []string{
		"ri/unaffected", "ri/polarity",
		"cap/unaffected", "cap/polarity", "cap/update-only!",
		"fi/unaffected!",
		"ri/global!",
	}
	if got := attempts(ev); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("emp-insert attempts = %v, want %v", got, want)
	}
	// The global event names the phase's verdict; stage-one attempts never
	// carry VIOLATED.
	last := ev[len(ev)-2]
	if last.Phase != "global" || last.Verdict != "holds" {
		t.Errorf("global event = %+v", last)
	}

	// Covered interval insertion: fi decided from local data alone, after
	// the cheaper phases fail (an l insert's phase-2 guard admits only an
	// empty interval, Y < X: this one is tested and not certified).
	ev = apply(store.Ins("l", relation.Ints(4, 8)))
	want = []string{
		"ri/unaffected!", "cap/unaffected!",
		"fi/unaffected", "fi/polarity", "fi/update-only", "fi/local-data!",
	}
	if got := attempts(ev); strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("l-insert attempts = %v, want %v", got, want)
	}
}

func TestTraceBracketsAndSequence(t *testing.T) {
	buf := obs.NewBufferTracer(8)
	c := traceChecker(t, buf, nil)
	for _, u := range []store.Update{
		store.Ins("dept", relation.Strs("shoe")),
		store.Ins("emp", relation.TupleOf(ast.Str("bob"), ast.Str("toy"), ast.Int(60))),
	} {
		if _, err := c.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	all := buf.All()
	if all[0].Kind != obs.KindUpdateBegin || all[0].Constraints != 3 {
		t.Errorf("first event = %+v, want update-begin over 3 constraints", all[0])
	}
	var seq uint64
	begins, ends := 0, 0
	for _, e := range all {
		if e.Seq <= seq {
			t.Fatalf("sequence not strictly increasing at %+v", e)
		}
		seq = e.Seq
		switch e.Kind {
		case obs.KindUpdateBegin:
			begins++
		case obs.KindUpdateEnd:
			ends++
			if !e.Applied {
				t.Errorf("benign update traced as rejected: %+v", e)
			}
		case obs.KindPhase:
			if e.Constraint == "" || e.Phase == "" {
				t.Errorf("phase event missing identity: %+v", e)
			}
		}
	}
	if begins != 2 || ends != 2 {
		t.Errorf("got %d begins / %d ends, want 2 / 2", begins, ends)
	}
	if u := all[0].Update; u != "+dept(shoe)" {
		t.Errorf("update rendered %q", u)
	}
}

func TestTraceCacheTransitions(t *testing.T) {
	buf := obs.NewBufferTracer(8)
	c := traceChecker(t, buf, nil)

	find := func(ev []obs.Event, constraint, phase string) obs.Event {
		t.Helper()
		for _, e := range ev {
			if e.Kind == obs.KindPhase && e.Constraint == constraint && e.Phase == phase {
				return e
			}
		}
		t.Fatalf("no %s/%s event in %v", constraint, phase, attempts(ev))
		return obs.Event{}
	}

	// First employee insert: the pattern's entry, its phase-2 guard
	// included, was built by AddConstraint.
	if _, err := c.Apply(store.Ins("emp", relation.TupleOf(ast.Str("bob"), ast.Str("toy"), ast.Int(60)))); err != nil {
		t.Fatal(err)
	}
	ev := buf.Last()
	if e := find(ev, "cap", "unaffected"); e.Cache != obs.CacheHit {
		t.Errorf("first entry cache = %q, want hit", e.Cache)
	}
	if e := find(ev, "cap", "update-only"); e.Cache != obs.CacheHit {
		t.Errorf("first phase-2 cache = %q, want hit", e.Cache)
	}

	// A second insert, at another salary of the same order type, hits both
	// layers too.
	if _, err := c.Apply(store.Ins("emp", relation.TupleOf(ast.Str("cid"), ast.Str("toy"), ast.Int(70)))); err != nil {
		t.Fatal(err)
	}
	ev = buf.Last()
	if e := find(ev, "cap", "unaffected"); e.Cache != obs.CacheHit {
		t.Errorf("warm entry cache = %q, want hit", e.Cache)
	}
	if e := find(ev, "cap", "update-only"); e.Cache != obs.CacheHit {
		t.Errorf("warm phase-2 cache = %q, want hit", e.Cache)
	}

	// With the cache disabled the events say so instead of guessing.
	c2 := traceChecker(t, buf, nil)
	c2.opts.DisableCache = true
	c2.refreshSet() // compile the programs again under the option
	if _, err := c2.Apply(store.Ins("emp", relation.TupleOf(ast.Str("bob"), ast.Str("toy"), ast.Int(60)))); err != nil {
		t.Fatal(err)
	}
	if e := find(buf.Last(), "cap", "unaffected"); e.Cache != obs.CacheOff {
		t.Errorf("disabled cache = %q, want off", e.Cache)
	}
}

func TestTraceRejectedUpdate(t *testing.T) {
	buf := obs.NewBufferTracer(8)
	c := traceChecker(t, buf, nil)
	rep, err := c.Apply(store.Ins("emp", relation.TupleOf(ast.Str("eve"), ast.Str("toy"), ast.Int(200))))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Applied {
		t.Fatal("violating update applied")
	}
	ev := buf.Last()
	end := ev[len(ev)-1]
	if end.Kind != obs.KindUpdateEnd || end.Applied || len(end.Rejected) != 1 || end.Rejected[0] != "cap" {
		t.Errorf("end event = %+v, want rejected [cap]", end)
	}
	var sawViolation bool
	for _, e := range ev {
		if e.Kind == obs.KindPhase && e.Constraint == "cap" && e.Phase == "global" {
			sawViolation = e.Decided && e.Verdict == "VIOLATED"
		}
	}
	if !sawViolation {
		t.Errorf("no VIOLATED global event for cap in %v", attempts(ev))
	}
}

func TestTraceRemoteRelations(t *testing.T) {
	buf := obs.NewBufferTracer(8)
	c := traceChecker(t, buf, nil)
	// Uncovered but harmless interval: fi reaches the global phase, whose
	// event lists the remote relation the evaluation consulted.
	rep, err := c.Apply(store.Ins("l", relation.Ints(40, 50)))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Applied {
		t.Fatal("harmless interval rejected")
	}
	for _, e := range buf.Last() {
		if e.Kind == obs.KindPhase && e.Constraint == "fi" && e.Phase == "global" {
			if len(e.Relations) != 1 || e.Relations[0] != "r" {
				t.Errorf("remote relations = %v, want [r]", e.Relations)
			}
			return
		}
	}
	t.Fatal("no global event for fi")
}

func TestCheckerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := traceChecker(t, nil, reg)
	if _, err := c.Apply(store.Ins("dept", relation.Strs("shoe"))); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.Apply(store.Ins("emp", relation.TupleOf(ast.Str("eve"), ast.Str("toy"), ast.Int(200)))); err != nil || rep.Applied {
		t.Fatalf("rep=%+v err=%v, want clean rejection", rep, err)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"cc_checker_updates_total 2",
		"cc_checker_rejected_total 1",
		`cc_checker_decisions_total{phase="unaffected"} 3`,
		`cc_checker_decisions_total{phase="polarity"} 1`,
		`cc_checker_decisions_total{phase="global"} 2`,
		"cc_checker_apply_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// The registry and the checker's own stats must agree.
	s := c.Stats()
	if s.Updates != 2 || s.Rejected != 1 || s.ByPhase[PhaseGlobal] != 2 {
		t.Errorf("stats diverged from metrics: %+v", s)
	}
}

// TestCheckersShareRegistry: the checker's counters are views of Stats,
// so two checkers on one registry sum, the process-wide gauges appear
// once and read the relation layer's counters at scrape time, and
// ResetStats restarts a checker's views with its Stats.
func TestCheckersShareRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	a, b := traceChecker(t, nil, reg), traceChecker(t, nil, reg)
	for _, c := range []*Checker{a, b, b} {
		if _, err := c.Apply(store.Ins("dept", relation.Strs("shoe"))); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snap["cc_checker_updates_total"]; got != int64(3) {
		t.Errorf("cc_checker_updates_total = %v over two checkers, want 3", got)
	}
	if got, want := snap["cc_index_probes"], relation.IndexProbes(); got != want {
		t.Errorf("cc_index_probes = %v, the relation layer counts %d", got, want)
	}
	if got, want := snap["cc_residual_compiled"], a.Stats().ResidualCompiled+b.Stats().ResidualCompiled; got != want {
		t.Errorf("cc_residual_compiled = %v, the checkers compiled %d", got, want)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if n := strings.Count(sb.String(), "\ncc_intern_size "); n != 1 {
		t.Errorf("cc_intern_size appears %d times:\n%s", n, sb.String())
	}
	b.ResetStats()
	if got := reg.Snapshot()["cc_checker_updates_total"]; got != int64(1) {
		t.Errorf("cc_checker_updates_total = %v after ResetStats of the second checker, want 1", got)
	}
}
