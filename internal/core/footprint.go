package core

import "repro/internal/sched"

// Footprints returns the scheduler footprint index for the current
// constraint set: per update pattern (relation + polarity) it derives
// the data a check may read, mirroring the checker's enabled phases
// (residual dispatch narrows reads to the harmful-occurrence disjunct
// bodies, and to one key group of a relation where the disjunct probes
// it with a value the update fixes; without it the conservative set is
// every relation the constraint mentions). The index is memoized and
// dropped whenever the constraint set changes, so callers should fetch
// it per update or per batch rather than holding one across
// AddConstraint/RemoveConstraint. Safe for concurrent use.
func (c *Checker) Footprints() *sched.Index {
	c.fpMu.Lock()
	defer c.fpMu.Unlock()
	if c.fpIndex == nil {
		c.fpIndex = sched.NewIndex(c.progs, sched.IndexOptions{
			Residual: c.residuals != nil,
			Polarity: !c.opts.DisableUpdateOnly,
			Sharder:  c.opts.Sharder,
		})
	}
	return c.fpIndex
}
