package core

import "repro/internal/store"

// Check decides an update without applying it: the full staged pipeline
// (residual dispatch, phases 1–4, identical verdicts and Decisions to
// Apply) minus Apply's one write. It is the decision-service "would this
// update be admitted?" primitive (internal/serve's POST /v1/check).
//
// A decision reads the store and writes nothing until it commits, so a
// Check — like a rejected Apply — leaves relations, schema and data
// versions, compiled residuals and kept fixpoints as they were, whatever
// u is (an unknown relation, a duplicate insert, an absent delete).
// Applied true means the update would be admitted.
//
// Check shares Apply's statistics: a checked update counts in
// Stats().Updates, its decisions in ByPhase and a rejection in Rejected,
// so a check-heavy service still reports a faithful phase distribution.
func (c *Checker) Check(u store.Update) (Report, error) { return c.one(u, false) }
