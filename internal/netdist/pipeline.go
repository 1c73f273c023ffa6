package netdist

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/store"
)

// ApplyBatch applies the updates as one atomic transaction, as
// core.Checker.ApplyBatch does, on the path of every decision (decide).
func (co *Coordinator) ApplyBatch(updates []store.Update) (core.BatchReport, error) {
	if len(updates) == 0 {
		return core.BatchReport{Applied: true, FailedAt: -1}, nil
	}
	d := co.begin()
	defer d.end()
	return co.decide(d, updates, nil, true)
}

// decision is the scratch one decision works in: its plans, what each
// member needs of the wire, the reads they add up to and the room each
// read is made in, the requests that publish the writes. A decision takes
// one from decisions when it starts (begin) and puts it back when it
// returns (end) — after every goroutine fanOut started for it has
// finished and every response it received is recycled — so nothing
// writes to it once it is back. Nothing a caller gets back points into
// it: a report copies what it keeps of a plan, the mirror copies the rows
// it stores, and the sites have answered every request.
type decision struct {
	co     *Coordinator
	us     [1]store.Update // an Apply's or a Check's update
	plans  []core.PlanReport
	needs  []int
	reads  reads
	ranges []relation.Range // a ReadPlan's
	fetch  []fetchRoom      // fetch[i] is where reads[i] is made
	pubs   []Request        // pubs[i] publishes remote[i]
	remote []store.Update
	acked  []bool
	// The functions decide hands to fanOut and to the checker, made once
	// per scratch: a closure made per decision would be allocated per
	// decision.
	refreshOne, propagateOne func(int) error
	publish                  func([]store.Update) error
}

var decisions = sync.Pool{New: func() any {
	d := new(decision)
	d.refreshOne = func(i int) error { return d.co.refresh(d.reads[i], &d.fetch[i]) }
	d.propagateOne = func(i int) error {
		if err := d.co.propagate(d.remote[i], &d.pubs[i]); err != nil {
			return err
		}
		d.acked[i] = true
		return nil
	}
	d.publish = func(ws []store.Update) error { return d.co.publish(d, ws) }
	return d
}}

// begin takes a decision's scratch from the pool.
func (co *Coordinator) begin() *decision {
	d := decisions.Get().(*decision)
	d.co = co
	return d
}

// end puts d back, holding no update or coordinator.
func (d *decision) end() {
	d.co, d.us[0] = nil, store.Update{}
	d.reads, d.needs = d.reads[:0], d.needs[:0]
	clear(d.remote)
	d.remote = d.remote[:0]
	decisions.Put(d)
}

// decide runs the stages of every decision on the members us, in d,
// appending their reports to reps — member i on the state before the batch with the members
// before it pending: plan the members, refresh the union of what the plans read, let the
// checker decide the members in order on the mirror, and, when commit is
// set and every member is admitted, publish the batch's writes to remote
// relations to their shards before the mirror takes them. The first
// rejection ends the batch (FailedAt). Mirror and shards hold the state
// before the batch until the verdict is in, so a rejected batch sends no
// write anywhere and there is nothing to roll back. The plans'
// certificates stand: what they spared is not refreshed.
func (co *Coordinator) decide(d *decision, us []store.Update, reps []core.Report, commit bool) (core.BatchReport, error) {
	co.start(len(us))
	d.plans = co.Checker.AppendPlans(d.plans[:0], us)
	for i, u := range us {
		d.needs = append(d.needs, d.add(u, &d.plans[i]))
	}
	what := func() string {
		if len(us) == 1 {
			return "update " + us[0].String()
		}
		return fmt.Sprintf("batch of %d", len(us))
	}
	if err := co.read(d); err != nil {
		return core.BatchReport{FailedAt: -1}, co.unavailable(err, what())
	}
	var publish func([]store.Update) error
	if slices.ContainsFunc(us, co.remote) {
		publish = d.publish
	}
	br, err := co.Checker.DecideAll(reps, d.plans, commit, publish)
	if errors.Is(err, ErrSiteUnavailable) {
		return br, co.unavailable(err, what())
	} else if err != nil {
		return br, err
	}
	for i, rep := range br.Reports {
		co.account(us[i], rep, d.needs[i], br.Applied)
	}
	return br, nil
}

// start opens a decision of n updates: n more updates in the stats.
func (co *Coordinator) start(n int) {
	co.statsMu.Lock()
	co.stats.Updates += n
	co.statsMu.Unlock()
}

// unavailable refuses a decision — a site it needed cannot be reached —
// and names what was refused in the error.
func (co *Coordinator) unavailable(err error, what string) error {
	co.noteUnavailable(err)
	return fmt.Errorf("%s: %w", what, err)
}

// account adds one decided update to the stats: its deciding phases, a
// rejection, and whether it was decided without the wire — no remote
// relation needed a read and nothing was published (written: its batch
// was written). That is computed directly because a round-trip delta
// would misattribute other decisions' traffic under concurrent appliers.
func (co *Coordinator) account(u store.Update, rep core.Report, need int, written bool) {
	remote := co.remote(u)
	co.statsMu.Lock()
	defer co.statsMu.Unlock()
	for _, d := range rep.Decisions {
		co.stats.ByPhase[d.Phase]++
	}
	if !rep.Applied {
		co.stats.Rejected++
	}
	if need == 0 && !(remote && written) {
		co.stats.DecidedLocally++
	}
}

// remote reports whether u writes a relation placed on a site.
func (co *Coordinator) remote(u store.Update) bool {
	_, placed := co.place[u.Relation]
	return placed
}

// publish sends a decided batch's writes to remote relations to their
// shard leaders, before the mirror takes any of the batch; each of the
// writes changes the mirror, so it changes its shard as well. When one
// fails, the writes sites acknowledged are withdrawn — their inverse sent
// — and the error refuses the batch with the mirror untouched. A
// withdrawal can fail as well, or a write can land after its timeout:
// that site then runs ahead of the mirror until the relation is refreshed
// (exactly-once wire writes would close the gap).
func (co *Coordinator) publish(d *decision, writes []store.Update) error {
	d.remote = d.remote[:0]
	for _, w := range writes {
		if co.remote(w) {
			d.remote = append(d.remote, w)
		}
	}
	n := len(d.remote)
	d.acked = slices.Grow(d.acked[:0], n)[:n]
	clear(d.acked)
	d.pubs = slices.Grow(d.pubs[:0], n)[:n]
	err := co.fanOut(n, d.propagateOne)
	if err == nil {
		return nil
	}
	err = fmt.Errorf("propagate: %w", err)
	for i, w := range d.remote {
		if d.acked[i] {
			if werr := co.unpropagate(w, &d.pubs[i]); werr != nil {
				err = errors.Join(err, fmt.Errorf("withdrawing %s: %w", w, werr))
			}
		}
	}
	return err
}

// fanOut runs fn for 0…n-1 and returns the first error in index order. At
// Options.ApplyWorkers ≤ 1 it runs them in turn on the caller's goroutine
// and stops at the first error; above, it runs them all at once — what a
// batch waits on is then one round trip, not one per read or write.
func (co *Coordinator) fanOut(n int, fn func(int) error) error {
	if co.opts.ApplyWorkers <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range errs {
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
