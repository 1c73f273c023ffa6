package core

import (
	"sort"

	"repro/internal/ast"
	"repro/internal/relation"
	"repro/internal/store"
)

// PlanReport is the outcome of a Plan: which constraints local
// certificates and the read-only phases 1–3 already decide for an update,
// which ones would need the global phase, and which stored relations that
// phase would read.
type PlanReport struct {
	// Decided holds the certificate (PhaseResidual) and phase-1/1.5/2/3
	// decisions (always Holds: a violation can only surface in an
	// evaluation).
	Decided []Decision
	// Witnesses names the certified constraints and what certified them;
	// Decide keeps them decided by it.
	Witnesses []Witness
	// Global names the constraints that need a global evaluation, in
	// registration order.
	Global []string
	// Relations is the sorted union of EDB relations (body predicates not
	// defined by the constraint programs themselves) mentioned by the
	// Global constraints — the data a global evaluation would consult.
	Relations []string

	// What Decide finishes the plan with, beside Witnesses: the planned
	// update and the fingerprint of the constraint set planned against.
	update store.Update
	fp     uint64
}

// Witness returns the tuple that certified the constraint, or nil when a
// certificate did not decide it.
func (pr PlanReport) Witness(constraint string) relation.Tuple {
	return witnessOf(pr.Witnesses, constraint)
}

// Plan runs the local certificates and the read-only phases 1–3 for every
// constraint against the update without applying it: the store is not
// mutated and the checker's aggregate stats are untouched (decision- and
// residual-cache hit/miss counters still move, since Plan warms the same
// caches Apply uses). A networked coordinator uses Plan to learn, before
// committing to an update, which remote relations it must fetch for the
// global phase — an update whose plan has no Global constraints needs no
// remote data at all.
//
// The certificates are asked of the compiled residual that decides the
// update. A caller that skips a refresh on a certificate's account must
// finish the decision with Decide, which keeps the certified constraints
// decided by the witnesses found here: Apply or Check would probe again,
// and a witness deleted in between would leave them evaluating over the
// relations the plan said they would not read.
func (c *Checker) Plan(u store.Update) PlanReport {
	n := len(c.constraints)
	phases := make([]Phase, n)
	decided := make([]bool, n)
	witnesses := make([]relation.Tuple, n)
	runParallel(n, c.workers(), func(i int) {
		if witnesses[i] = c.certificate(c.constraints[i], u); witnesses[i] != nil {
			phases[i], decided[i] = PhaseResidual, true
			return
		}
		phases[i], decided[i] = c.stageOne(c.constraints[i], u, nil)
	})
	pr := PlanReport{update: u, fp: c.fp}
	seen := map[string]bool{}
	for i, k := range c.constraints {
		if decided[i] {
			pr.Decided = append(pr.Decided, Decision{k.Name, phases[i], Holds})
			if witnesses[i] != nil {
				pr.Witnesses = append(pr.Witnesses, Witness{k.Name, witnesses[i]})
			}
			continue
		}
		pr.Global = append(pr.Global, k.Name)
		for _, rel := range edbRelations(k.Prog) {
			if !seen[rel] {
				seen[rel] = true
				pr.Relations = append(pr.Relations, rel)
			}
		}
	}
	sort.Strings(pr.Relations)
	return pr
}

// Decide finishes the decision pr planned — Apply when commit is set,
// Check otherwise — with the constraints the plan certified decided as
// planned. The witness may be gone by now and the verdict still stands:
// it was in the store, with the constraint holding, at a moment when the
// relations the rest of the rule reads were what they are now, provided
// the caller kept writes to those away between Plan and Decide — the
// update's footprint does (Footprints), and it need not cover the
// witness's own relation for that. A plan made against another constraint
// set is decided afresh.
func (c *Checker) Decide(pr PlanReport, commit bool) (Report, error) {
	if pr.fp != c.fp {
		return c.decide(pr.update, commit, nil)
	}
	return c.decide(pr.update, commit, pr.Witnesses)
}

// certificate returns the witness when the local certificates of the
// constraint's compiled residual alone decide u on the store as it
// stands, and nil otherwise — always nil where no certificate is compiled
// (nothing is remote, phase 3 or residual dispatch is off, u deletes).
func (c *Checker) certificate(k *Constraint, u store.Update) relation.Tuple {
	if c.resOpts.Local == nil || !u.Insert {
		return nil
	}
	res, _, ok := c.residuals.For(k.Prog, u, c.db, c.resOpts)
	if !ok {
		return nil
	}
	return res.Certified(c.db, u.Tuple)
}

// edbRelations returns the body predicates of prog that are not defined
// by any of prog's rule heads — the stored relations an evaluation reads
// (derived predicates are computed, not fetched).
func edbRelations(prog *ast.Program) []string {
	heads := map[string]bool{}
	for _, r := range prog.Rules {
		heads[r.Head.Pred] = true
	}
	var out []string
	seen := map[string]bool{}
	for _, r := range prog.Rules {
		for _, l := range r.Body {
			if l.IsComp() || heads[l.Atom.Pred] || seen[l.Atom.Pred] {
				continue
			}
			seen[l.Atom.Pred] = true
			out = append(out, l.Atom.Pred)
		}
	}
	return out
}
