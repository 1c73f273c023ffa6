package core

import "repro/internal/store"

// Check decides an update without leaving it applied: it runs the full
// staged pipeline (residual dispatch, phases 1–4, identical verdicts and
// Decisions to Apply) and then restores the store to its pre-check
// state. It is the decision-service "would this update be admitted?"
// primitive (internal/serve's POST /v1/check).
//
// Admitted updates are applied and then exactly undone — the undo only
// fires when the update actually changed the store, so checking a
// duplicate insert or an absent delete never corrupts pre-existing
// tuples — and kept fixpoints take back what the trial derived, so a
// check costs the next decision nothing. Rejected updates are rolled
// back the same way. Either way the report reads as Apply's would:
// Applied true means the update would be admitted, not that it stayed
// applied.
//
// Check shares Apply's serialization contract (one mutating call at a
// time) and its statistics: a checked update counts in Stats().Updates
// and its decisions in ByPhase, so a check-heavy service still reports a
// faithful phase distribution.
func (c *Checker) Check(u store.Update) (Report, error) { return c.decide(u, false) }
