package core

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/store"
)

// refChecker holds the referential constraint with emp local and dept
// remote: the mirror's dept is whatever the test puts there, as a
// coordinator's unrefreshed mirror would be.
func refChecker(t *testing.T, facts string, opts Options) *Checker {
	t.Helper()
	opts.LocalRelations = []string{"emp"}
	c := newChecker(t, facts, opts)
	if err := c.AddConstraintSource("ri", "panic :- emp(E,D) & not dept(D)."); err != nil {
		t.Fatal(err)
	}
	return c
}

func hire(e, d string) store.Update { return store.Ins("emp", relation.Strs(e, d)) }

// TestCertificateDecides: an insert into the local relation with a stored
// tuple of the same department is decided by the certificate — a residual
// decision that names its witness, counts as LocalCertified and reads
// nothing of dept — and without one by the residual's plan.
func TestCertificateDecides(t *testing.T) {
	buf, reg := obs.NewBufferTracer(4), obs.NewRegistry()
	c := refChecker(t, "dept(toy). dept(shoe). emp(ann,toy).", Options{Tracer: buf, Metrics: reg})
	phaseEvent := func() obs.Event {
		t.Helper()
		for _, e := range buf.Last() {
			if e.Kind == obs.KindPhase {
				return e
			}
		}
		t.Fatal("no phase event")
		return obs.Event{}
	}

	c.DB().ResetReads()
	rep, err := c.Apply(hire("bob", "toy"))
	if err != nil || !rep.Applied {
		t.Fatalf("rep=%+v err=%v", rep, err)
	}
	d := rep.Decisions[0]
	if d.Phase != PhaseResidual || d.Verdict != Holds || !rep.Witness("ri").Equal(relation.Strs("ann", "toy")) {
		t.Errorf("decision = %+v, want residual/holds certified by emp(ann,toy)", d)
	}
	if n := c.DB().Reads("dept"); n != 0 {
		t.Errorf("a certified insert read dept %d times", n)
	}
	if e := phaseEvent(); e.Phase != "residual" || e.Certificate != obs.CacheHit || e.Witness != "emp(ann,toy)" {
		t.Errorf("hit event = %+v", e)
	}
	var text strings.Builder
	obs.WriteText(&text, buf.Last())
	if !strings.Contains(text.String(), "certificate=hit  witness=emp(ann,toy)") {
		t.Errorf("explain text lacks the certificate:\n%s", text.String())
	}

	// Nobody in the department yet: the plan probes dept.
	rep, err = c.Apply(hire("cid", "shoe"))
	if err != nil || !rep.Applied {
		t.Fatalf("rep=%+v err=%v", rep, err)
	}
	if d := rep.Decisions[0]; d.Phase != PhaseResidual || rep.Witnesses != nil {
		t.Errorf("decision = %+v, want an uncertified residual decision", d)
	}
	if e := phaseEvent(); e.Certificate != obs.CacheMiss || e.Witness != "" {
		t.Errorf("miss event = %+v", e)
	}
	if rep, err = c.Apply(hire("dan", "ghost")); err != nil || rep.Applied {
		t.Fatalf("ghost department admitted: rep=%+v err=%v", rep, err)
	}

	if s := c.Stats(); s.LocalCertified != 1 || s.ByPhase[PhaseResidual] != 3 {
		t.Errorf("stats = %+v, want 1 certified of 3 residual decisions", s)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "cc_checker_local_certified_total 1") {
		t.Errorf("exposition lacks cc_checker_local_certified_total 1:\n%s", sb.String())
	}
	c.ResetStats()
	if s := c.Stats(); s.LocalCertified != 0 {
		t.Errorf("ResetStats left LocalCertified = %d", s.LocalCertified)
	}
}

// TestNoCertificateWithoutRemoteOrPhase3: where nothing is remote, and
// under DisableLocalData, the same insert is decided by the plan, the
// trace says nothing of certificates and dept is read.
func TestNoCertificateWithoutRemoteOrPhase3(t *testing.T) {
	for name, opts := range map[string]Options{
		"nothing remote": {},
		"phase 3 off":    {LocalRelations: []string{"emp"}, DisableLocalData: true},
		"scan arm":       {LocalRelations: []string{"emp"}, DisableIndexes: true},
	} {
		buf := obs.NewBufferTracer(4)
		opts.Tracer = buf
		c := newChecker(t, "dept(toy). emp(ann,toy).", opts)
		if err := c.AddConstraintSource("ri", "panic :- emp(E,D) & not dept(D)."); err != nil {
			t.Fatal(err)
		}
		c.DB().ResetReads()
		rep, err := c.Apply(hire("bob", "toy"))
		if err != nil || !rep.Applied || rep.Decisions[0].Phase != PhaseResidual || rep.Witnesses != nil {
			t.Errorf("%s: rep=%+v err=%v", name, rep, err)
		}
		if c.DB().Reads("dept") == 0 || c.Stats().LocalCertified != 0 {
			t.Errorf("%s: dept reads %d, certified %d", name, c.DB().Reads("dept"), c.Stats().LocalCertified)
		}
		for _, e := range buf.Last() {
			if e.Certificate != "" || e.Witness != "" {
				t.Errorf("%s: event %+v mentions a certificate", name, e)
			}
		}
	}
}

// TestDecideKeepsPlannedCertificate: a caller that skipped a refresh on
// the plan's word finishes with Decide, and the verdict is the
// certificate's even when the witness has gone since — Apply would probe
// again and fall back on a mirror nobody refreshed.
func TestDecideKeepsPlannedCertificate(t *testing.T) {
	// The mirror holds no dept at all: only a certificate admits a hire.
	c := refChecker(t, "", Options{})
	ann := relation.Strs("ann", "toy")
	if _, err := c.DB().Insert("emp", ann); err != nil {
		t.Fatal(err)
	}
	u := hire("bob", "toy")
	pr := c.Plan(u)
	if len(pr.Global) != 0 || len(pr.Decided) != 1 || !pr.Witness("ri").Equal(ann) {
		t.Fatalf("plan = %+v, want ri certified by emp(ann,toy)", pr)
	}
	c.DB().Delete("emp", ann)
	if rep, err := c.Check(u); err != nil || rep.Applied {
		t.Fatalf("a fresh check, witness gone, mirror empty: rep=%+v err=%v", rep, err)
	}
	rep, err := decideOne(c, pr, true)
	if err != nil || !rep.Applied || !rep.Witness("ri").Equal(ann) || rep.Decisions[0].Phase != PhaseResidual {
		t.Fatalf("DecideAll(plan) = %+v, %v; want applied on the planned certificate", rep, err)
	}
	if !c.DB().Contains("emp", u.Tuple) || c.Stats().LocalCertified != 1 {
		t.Errorf("bob stored: %v, certified: %d", c.DB().Contains("emp", u.Tuple), c.Stats().LocalCertified)
	}

	// A plan outlived by its constraint set is decided afresh.
	u = hire("cid", "toy")
	pr = c.Plan(u)
	if err := c.AddConstraintSource("cap", "panic :- emp(E,D) & banned(E)."); err != nil {
		t.Fatal(err)
	}
	c.DB().Delete("emp", relation.Strs("bob", "toy"))
	if rep, err := decideOne(c, pr, true); err != nil || rep.Applied {
		t.Fatalf("stale plan trusted: rep=%+v err=%v", rep, err)
	}
}

// TestKeptCoverFollowsLocalRelation: the local test of an ICQ against the
// kept cover equals the from-scratch CertifyInsert whatever was inserted
// into or deleted from the local relation in between, the cover is
// rebuilt only when the relation moved, and a decision on a kept cover
// does not read the relation.
func TestKeptCoverFollowsLocalRelation(t *testing.T) {
	c := newChecker(t, "l(3,6). l(5,10). r(20).", Options{LocalRelations: []string{"l"}})
	if err := c.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
		t.Fatal(err)
	}
	k := c.constraints[0]
	if k.analysis == nil {
		t.Fatal("fi is not analysed as an ICQ")
	}
	rng := rand.New(rand.NewSource(3))
	interval := func() relation.Tuple {
		lo := int64(rng.Intn(16))
		return relation.Ints(lo, lo+int64(rng.Intn(6)))
	}
	for round := 0; round < 200; round++ {
		switch rng.Intn(4) {
		case 0:
			if _, err := c.DB().Insert("l", interval()); err != nil {
				t.Fatal(err)
			}
		case 1:
			if ts := c.DB().Tuples("l"); len(ts) > 0 {
				c.DB().Delete("l", ts[rng.Intn(len(ts))])
			}
		}
		ins := interval()
		want, err := k.analysis.CertifyInsert(ins, c.DB().Tuples("l"))
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.localTest(k, ins)
		if err != nil || got != want {
			t.Fatalf("round %d: local test of %v over %v = %v, %v; from scratch %v", round, ins, c.DB().Tuples("l"), got, err, want)
		}
		kept, reads := k.cover.Load(), c.DB().Reads("l")
		if _, err := c.localTest(k, interval()); err != nil {
			t.Fatal(err)
		}
		if k.cover.Load() != kept || c.DB().Reads("l") != reads {
			t.Fatalf("round %d: a second test on an unmoved relation rebuilt the cover or read l", round)
		}
	}
}

// decideOne is DecideAll for one plan, as a Report.
func decideOne(c *Checker, pr PlanReport, commit bool) (Report, error) {
	br, err := c.DecideAll(nil, []PlanReport{pr}, commit, nil)
	if len(br.Reports) == 0 {
		return Report{Update: pr.update}, err
	}
	return br.Reports[0], err
}
