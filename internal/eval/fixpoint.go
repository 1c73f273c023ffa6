package eval

import (
	"sync"

	"repro/internal/relation"
	"repro/internal/store"
)

// Fixpoint is the kept result of one goal-pruned evaluation: every
// derived relation of the program over the store as it stood, held as
// handle rows (rowSet), together with the data version of every stored
// relation those rows were derived from. While those versions still
// stand, the question GoalHoldsAfter answers from scratch after an insert —
// is the goal derivable now? — is answered by running only the
// semi-naive rounds the inserted tuple seeds (Insert): given the goal
// was underivable before, only derivations that use the new tuple can
// derive it.
//
// The holder accounts for the inserts it folds (Wrote); any other write
// to a relation the rows depend on shows as a version mismatch (Valid),
// and the holder builds a new one. A Fixpoint is safe for concurrent
// use, one call at a time per instance (but see Insert on keep).
type Fixpoint struct {
	mu   sync.Mutex
	comp *compiled
	db   *store.Store
	sets []*rowSet // by slot
	// edb are the stored relations whose contents the kept rows depend on
	// where it matters — those that feed a derived predicate some rule
	// reads (compiled.feeds); vers are their data versions as of the
	// fixpoint. A relation the rules only read directly is read live.
	edb  []string
	vers []uint64
}

// buildFixpoint is Goal.Fixpoint for the compiled evaluation c.
func buildFixpoint(c *compiled, db *store.Store, rel string) *Fixpoint {
	if c.noRules {
		return nil // underivable whatever the data: nothing worth keeping
	}
	c.prepareDelta()
	f := &Fixpoint{comp: c, db: db}
	if !f.Seedable(rel) {
		return nil
	}
	// Versions first: a write that lands while the evaluation reads must
	// leave the fixpoint stale, not current.
	f.edb = c.feeds
	f.vers = make([]uint64, len(f.edb))
	for i, name := range f.edb {
		f.vers[i] = db.DataVersion(name)
	}
	ev, res := newEvaluator(c, db)
	defer ev.release()
	// A goal fact ends the build at once: the premise of Insert —
	// underivable before the update — does not hold, so nothing is kept and
	// the decision, and every later one until it does, is left to the
	// from-scratch evaluation, at no more than the price of one more.
	ev.stop = c.goalSlot
	for i := range c.strata {
		if ev.evalStratum(&c.strata[i]) != nil { // errGoalDerived
			return nil
		}
	}
	// The result's rows become the kept ones, with a bucket index on every
	// column set a delta plan probes past its delta literal.
	f.sets = res.sets
	for _, sp := range c.strata {
		for _, rp := range sp.rules {
			for _, o := range rp.occs {
				p := c.deltaPlans[o.id]
				if p == nil {
					continue
				}
				for _, st := range p.steps {
					if st.kind == stepPos && st.slot >= 0 && st.body != o.pos && len(st.probeCols) > 0 {
						f.sets[st.slot].ensureIndex(st.probeCols)
					}
				}
			}
		}
	}
	for _, rs := range f.sets {
		rs.kept = rs.n
	}
	return f
}

// Seedable reports whether Insert decides an insert into rel exactly:
// rel is a stored relation and the insert only ever adds derived facts
// (compiled.monotone).
func (f *Fixpoint) Seedable(rel string) bool {
	if m, reads := f.comp.monotone[rel]; reads {
		return m
	}
	_, derived := f.comp.slot[rel]
	return !derived
}

// Valid reports whether every stored relation the kept rows depend on
// still has the version it is accounted at.
func (f *Fixpoint) Valid() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, name := range f.edb {
		if f.db.DataVersion(name) != f.vers[i] {
			return false
		}
	}
	return true
}

// Insert reports whether the goal is derivable once the updates prior and
// then the insert of t into rel are applied, for a store that matches the
// fixpoint and its open overlay — nothing is written; every stored read
// sees the updates beside the stored tuples. It runs the strata in order,
// each seeded with the tuple and the facts lower strata gained, and stops
// at the first goal fact. What it derives is an overlay on the rows: gone
// when Insert returns, so decisions that only ask may overlap — or, with
// keep, left for Close, and the holder lets no other Insert in till then
// but the keeping ones of the same batch, whose overlays add up.
//
// The rows must account for prior: the holder passes one whose writes to
// the stored relations the program reads are exactly inserts this
// overlay holds, and evaluates from scratch otherwise.
func (f *Fixpoint) Insert(prior []store.Update, rel string, t relation.Tuple, keep bool) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !keep {
		defer f.settle(false)
	}
	for _, rs := range f.sets {
		rs.start = rs.n
	}
	ev := getEvaluator()
	ev.comp, ev.db, ev.sets, ev.stop = f.comp, f.db, f.sets, f.comp.goalSlot
	ev.pend(prior, store.Ins(rel, t))
	defer ev.release()
	for i := range f.comp.strata {
		if ev.seededStratum(&f.comp.strata[i], rel) != nil { // errGoalDerived
			return true
		}
	}
	return false
}

// seededStratum is evalStratum started from a delta instead of from the
// stored relations: a first pass runs every rule once per occurrence of
// the inserted relation (over the seed tuple) and of a lower stratum's
// predicate that gained rows in this Insert (over those rows); the
// semi-naive rounds then chase the rows the stratum's own predicates
// gain, a round's delta being the row range the previous round appended.
// Each occurrence runs the plan that starts from it.
func (ev *evaluator) seededStratum(sp *stratumPlan, rel string) error {
	sets, plans := ev.sets, ev.comp.deltaPlans
	for _, s := range sp.slots {
		sets[s].lo = sets[s].n
	}
	for _, rp := range sp.rules {
		for _, o := range rp.occs {
			if o.inLayer {
				continue
			}
			ev.dlo, ev.dhi = 0, 0
			if o.slot >= 0 {
				ev.dlo, ev.dhi = sets[o.slot].start, sets[o.slot].n
			}
			if o.pred == rel || ev.dlo < ev.dhi {
				if err := ev.applyRule(plans[o.id], o.pos); err != nil {
					return err
				}
			}
		}
	}
	for {
		grew := false
		for _, s := range sp.slots {
			sets[s].hi = sets[s].n
			grew = grew || sets[s].lo < sets[s].hi
		}
		if !grew {
			return nil
		}
		for _, rp := range sp.rules {
			for _, o := range rp.occs {
				if o.inLayer && sets[o.slot].lo < sets[o.slot].hi {
					ev.dlo, ev.dhi = sets[o.slot].lo, sets[o.slot].hi
					if err := ev.applyRule(plans[o.id], o.pos); err != nil {
						return err
					}
				}
			}
		}
		for _, s := range sp.slots {
			sets[s].lo = sets[s].hi
		}
	}
}

// Close ends the decision a keeping Insert opened: what it derived
// becomes part of the fixpoint (fold: the holder commits the insert) or
// is dropped (it was rejected). Only the caller of that Insert may close
// it, or rows an admitted insert is about to fold would be wiped.
func (f *Fixpoint) Close(fold bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.settle(fold)
}

// settle folds or drops the open overlay, under f.mu.
func (f *Fixpoint) settle(fold bool) {
	for _, rs := range f.sets {
		if fold {
			rs.kept = rs.n
		} else if rs.n > rs.kept {
			rs.truncate(rs.kept)
		}
	}
}

// Wrote accounts for the one write to rel that put a folded insert into
// the store: the version rel is accounted at advances by it. The rows are
// not touched, and a fixpoint that does not depend on rel ignores it.
func (f *Fixpoint) Wrote(rel string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, name := range f.edb {
		if name == rel {
			f.vers[i]++
		}
	}
}

// Tuples returns the kept tuples of a derived predicate (an open
// overlay excluded), and nil for any other: the goal-pruned program
// derives only what the goal depends on.
func (f *Fixpoint) Tuples(pred string) []relation.Tuple {
	f.mu.Lock()
	defer f.mu.Unlock()
	if i, ok := f.comp.slot[pred]; ok {
		return f.sets[i].tuples(f.sets[i].kept)
	}
	return nil
}
