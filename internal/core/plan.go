package core

import (
	"slices"

	"repro/internal/relation"
	"repro/internal/residual"
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
	// DecideAll keeps them decided by it.
	Witnesses []Witness
	// Global names the constraints that need a global evaluation, in
	// registration order.
	Global []string
	// Relations is the sorted union of EDB relations (body predicates not
	// defined by the constraint programs themselves) mentioned by the
	// Global constraints — the data a global evaluation would consult.
	Relations []string

	// What DecideAll finishes the plan with, beside Witnesses: the planned
	// update and the fingerprint of the constraint set planned against.
	update store.Update
	fp     uint64
}

// Witness returns the tuple that certified the constraint, or nil when a
// certificate did not decide it.
func (pr PlanReport) Witness(constraint string) relation.Tuple {
	return witnessOf(pr.Witnesses, constraint).Tuple()
}

// Plan runs the local certificates and the read-only phases 1–3 for every
// constraint against the update without applying it: the store is not
// mutated and the checker's stats are untouched — the entries and compiled
// checks a plan is served are counted once, by the decision that finishes
// it (DecideAll), as for an Apply. A networked coordinator uses Plan to learn,
// before committing to an update, which remote relations it must fetch
// for the global phase — an update whose plan has no Global constraints
// needs no remote data at all.
//
// The certificates are asked of the compiled residual that decides the
// update. A caller that skips a refresh on a certificate's account must
// finish the decision with DecideAll, which keeps the certified
// constraints decided by the witnesses found here: Apply or Check would
// probe again, and a witness deleted in between would leave them
// evaluating over the relations the plan said they would not read.
func (c *Checker) Plan(u store.Update) PlanReport {
	var pr PlanReport
	c.plan(&pr, nil, u)
	return pr
}

// plan is Plan for u once the updates prior are applied (AppendPlans),
// into pr: its slices are refilled in the room they already have, so a
// plan made into a kept PlanReport allocates only to grow it.
func (c *Checker) plan(pr *PlanReport, prior []store.Update, u store.Update) {
	p := c.programOf(u)
	// Certificates are compiled only for inserts, and only where something
	// is remote and phase 3 and residual dispatch are on.
	certs := c.resOpts.Local != nil && u.Insert
	// A program's static steps are decided, and so is a step whose compiled
	// check is certified; only the rest run the tuple-dependent phases.
	var small [8]planOutcome // a small program's outcomes stay on the stack
	out := small[:]
	if len(p.steps) > len(small) {
		out = make([]planOutcome, len(p.steps))
	}
	out = out[:len(p.steps)]
	for i := range p.steps {
		s, o := &p.steps[i], &out[i]
		switch s.kind {
		case stepStatic:
			o.phase, o.decided = s.phase, true
			continue
		case stepResidual:
			if certs {
				if o.witness = s.check.Certified(c.db, prior, u.Tuple); o.witness.Found() {
					o.phase, o.decided = PhaseResidual, true
					continue
				}
			}
			// Uncertified, the constraint is the phases' to decide; the
			// compiled check is Apply's. No pattern-level phase decides it:
			// compile makes a step residual only where none does.
		}
		o.phase, o.decided = c.stageOne(s.k, s.entry, prior, u, nil)
	}
	// Size each report slice once; one a fresh plan leaves empty stays nil.
	var decided, witnesses, global, rels int
	for i := range out {
		switch o := &out[i]; {
		case !o.decided:
			global++
			rels += len(p.steps[i].k.edb)
		case o.witness.Found():
			decided++
			witnesses++
		default:
			decided++
		}
	}
	*pr = PlanReport{
		Decided:   slices.Grow(pr.Decided[:0], decided),
		Witnesses: slices.Grow(pr.Witnesses[:0], witnesses),
		Global:    slices.Grow(pr.Global[:0], global),
		Relations: slices.Grow(pr.Relations[:0], rels),
		update:    u,
		fp:        c.fp,
	}
	for i := range p.steps {
		k, o := p.steps[i].k, &out[i]
		if o.decided {
			pr.Decided = append(pr.Decided, Decision{k.Name, o.phase, Holds})
			if o.witness.Found() {
				pr.Witnesses = append(pr.Witnesses, Witness{k.Name, o.witness})
			}
			continue
		}
		pr.Global = append(pr.Global, k.Name)
		for _, rel := range k.edb {
			if !slices.Contains(pr.Relations, rel) {
				pr.Relations = append(pr.Relations, rel)
			}
		}
	}
	slices.Sort(pr.Relations)
}

// planOutcome is what a plan found out about one constraint.
type planOutcome struct {
	phase   Phase
	decided bool
	witness residual.Witness
}
