package core

import (
	"fmt"

	"repro/internal/store"
)

// BatchReport is the outcome of one ApplyBatch.
type BatchReport struct {
	Reports []Report
	// Applied is false when some update violated a constraint; the whole
	// batch was then rolled back.
	Applied bool
	// FailedAt is the index of the violating update when Applied is
	// false (-1 otherwise).
	FailedAt int
}

// ApplyBatch applies the updates as one atomic transaction: each update
// runs through the staged pipeline in order (each Apply fanning its
// per-constraint work across the Options.Workers pool), and if any is
// rejected the whole batch is undone and FailedAt reports the offender.
// The staged tests remain valid within the batch because each successful
// Apply leaves every constraint satisfied (the inductive invariant the
// paper's tests assume).
func (c *Checker) ApplyBatch(updates []store.Update) (BatchReport, error) {
	br := BatchReport{Applied: true, FailedAt: -1}
	// Record inverse operations of the updates that actually changed the
	// store, for rollback in reverse order.
	type undo struct {
		u       store.Update
		changed bool
	}
	var undos []undo
	// The rollback writes are not accounted to the kept fixpoints: one
	// that folded a rolled-back insert is stale, the data version of the
	// relation says so, and the next decision that needs it rebuilds it.
	rollback := func() error {
		for i := len(undos) - 1; i >= 0; i-- {
			if !undos[i].changed {
				continue
			}
			u := undos[i].u
			if u.Insert {
				c.db.Delete(u.Relation, u.Tuple)
			} else if _, err := c.db.Insert(u.Relation, u.Tuple); err != nil {
				return fmt.Errorf("core: batch rollback failed: %w", err)
			}
		}
		return nil
	}
	for i, u := range updates {
		// Determine whether this update will change the store (before
		// Apply mutates it), so rollback is exact even with duplicate
		// updates inside one batch.
		changes := c.db.Contains(u.Relation, u.Tuple) != u.Insert
		rep, err := c.Apply(u)
		if err != nil {
			if rbErr := rollback(); rbErr != nil {
				return br, rbErr
			}
			return br, err
		}
		br.Reports = append(br.Reports, rep)
		if !rep.Applied {
			br.Applied = false
			br.FailedAt = i
			if err := rollback(); err != nil {
				return br, err
			}
			return br, nil
		}
		undos = append(undos, undo{u: u, changed: changes})
	}
	return br, nil
}
