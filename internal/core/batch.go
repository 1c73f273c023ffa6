package core

import (
	"errors"
	"slices"
	"sync"

	"repro/internal/eval"
	"repro/internal/store"
)

// BatchReport is the outcome of one ApplyBatch or DecideAll.
type BatchReport struct {
	// Reports holds the reports of the members decided, in order: up to and
	// including a rejected one, up to an error.
	Reports []Report
	// Applied is true when every member was admitted and the batch was
	// written. It is false when a member violated a constraint (FailedAt
	// says which) or the call returned an error; nothing was written then.
	Applied bool
	// FailedAt is the index of the violating update when one rejected the
	// batch (-1 otherwise).
	FailedAt int
}

// ApplyBatch applies the updates as one atomic transaction. Update i is
// decided against the store with updates 0…i-1 pending — the state the
// paper's tests assume holds the constraints, since each earlier member
// was admitted there — and the first rejection ends the batch, with
// FailedAt naming it. The batch is written once, after every member is
// admitted, at most one write per tuple; a rejected batch writes nothing,
// so there is nothing to roll back.
func (c *Checker) ApplyBatch(updates []store.Update) (BatchReport, error) {
	return c.decide(updates, nil, true, nil, nil)
}

// AppendPlans plans the updates as one sequence, appending the plans to
// dst: update i against the store with updates 0…i-1 pending, as
// DecideAll decides it. A member's certificate may be an earlier member's
// insert, and a stored tuple an earlier member deletes certifies nothing.
// Each plan is made in the element of dst's spare capacity it lands on,
// reusing that element's slices, so a caller that plans every decision
// into one kept slice allocates only while it grows; the plans then
// share memory with whatever those elements held before.
func (c *Checker) AppendPlans(dst []PlanReport, us []store.Update) []PlanReport {
	n := len(dst)
	dst = slices.Grow(dst, len(us))[:n+len(us)]
	for i, u := range us {
		c.plan(&dst[n+i], us[:i], u)
	}
	return dst
}

// DecideAll finishes the decisions Plan or AppendPlans planned, on
// ApplyBatch's path: it writes when commit is set and only decides
// otherwise. The constraints a plan certified stay decided by its
// witness. The witness may be gone by now and the verdict still stands:
// it was in the store, with the constraint holding, at a moment when the
// relations the rest of the rule reads were what they are now, provided
// the caller kept writes to those away between planning and deciding —
// the update's footprint does (Footprints), and it need not cover the
// witness's own relation for that. A plan made against another constraint
// set is decided afresh. When every member is admitted and commit is set,
// publish, when non-nil, receives the writes the batch will make before
// the store does; an error from it ends the batch with the store
// untouched and is returned. Should the store then refuse the writes,
// publish receives their inverse. The writes publish is handed are the
// decision's scratch: it must not keep them past the call. The reports
// are appended to reps (BatchReport.Reports).
func (c *Checker) DecideAll(reps []Report, plans []PlanReport, commit bool, publish func(writes []store.Update) error) (BatchReport, error) {
	return c.decide(nil, plans, commit, publish, reps)
}

// one is Apply and Check: decide's steps for one update with no plan and
// no publish — judge, then the one write and its fixpoints (closeAll). It
// does not go through decide, whose batch bookkeeping costs a flat Apply
// about 75 ns (+12 % on an unaffected insert/delete pair, 2-vCPU host).
func (c *Checker) one(u store.Update, commit bool) (Report, error) {
	var room dynOutcomes
	rep, dyn, err := c.judge(nil, u, commit, nil, nil, room[:0])
	if err != nil || !commit || !rep.Applied {
		return rep, err
	}
	us := [1]store.Update{u}
	written, err := c.db.Write(us[:])
	closeAll(dyn, err == nil, written)
	return rep, err
}

// decide decides the updates us — or, us nil, those plans planned — in
// order, member i with members 0…i-1 pending, up to the first rejection
// or error, appending the reports to reps. Only then, when
// commit is set, does it write: the batch's net delta (netWrites), through
// publish first when there is one, then into the store all or none
// (store.Write). Nothing is written before the verdict, so nothing is
// undone. Kept fixpoints fold what the members derived on them once the
// batch is written, and drop it otherwise.
func (c *Checker) decide(us []store.Update, plans []PlanReport, commit bool, publish func([]store.Update) error, reps []Report) (BatchReport, error) {
	n := max(len(us), len(plans))
	if reps == nil {
		reps = make([]Report, 0, n)
	}
	br := BatchReport{Reports: reps, FailedAt: -1}
	// A batch's members read the earlier ones from a copy — a single
	// update stays where its caller put it — and a sequence holds what the
	// batch's fixpoints derived for them, both in pooled room, as are the
	// writes of a batch and the changes a publish is handed.
	var held *batchRoom
	if n > 1 || publish != nil {
		held = batchRooms.Get().(*batchRoom)
		defer held.put()
	}
	var pending []store.Update
	var sq sequence
	if n > 1 {
		pending = slices.Grow(held.pending[:0], n)[:n]
		sq = slices.Grow(held.sq[:0], len(c.constraints))[:len(c.constraints)]
		held.pending, held.sq = pending, sq
		for i := range pending {
			pending[i], _ = c.member(us, plans, i)
		}
	}
	// Only a one-member decision keeps its outcomes past the next member's
	// (closeAll below), so every member fills the same room.
	var room dynOutcomes
	var dyn []dynOutcome
	for i := 0; i < n; i++ {
		u, planned := c.member(us, plans, i)
		rep, d, err := c.judge(pending[:i], u, commit || sq != nil, planned, sq, room[:0])
		if err == nil {
			br.Reports = append(br.Reports, rep)
		}
		if err != nil || !rep.Applied {
			sq.close(false, nil)
			if err == nil {
				br.FailedAt = i
			}
			return br, err
		}
		dyn = d
	}
	if !commit {
		sq.close(false, nil)
		return br, nil
	}
	var buf [1]store.Update
	var writes []store.Update
	if n > 1 {
		held.writes = c.netWrites(held.writes[:0], us, plans)
		writes = held.writes
	} else {
		writes = c.netWrites(buf[:0], us, plans)
	}
	// What publish is handed — and, should the store then refuse the
	// writes, handed back inverted — is what changes the store: a site
	// holds what the store does.
	changes := func(invert bool) []store.Update {
		ws := held.changes[:0]
		for _, w := range writes {
			if c.db.Contains(w.Relation, w.Tuple) != w.Insert {
				w.Insert = w.Insert != invert
				ws = append(ws, w)
			}
		}
		held.changes = ws
		return ws
	}
	var err error
	if publish != nil {
		if ws := changes(false); len(ws) > 0 {
			err = publish(ws)
		}
	}
	var written []store.Update
	if err == nil {
		if written, err = c.db.Write(writes); err != nil && publish != nil {
			err = errors.Join(err, publish(changes(true)))
		}
	}
	br.Applied = err == nil
	if sq == nil {
		closeAll(dyn, br.Applied, written)
	} else {
		sq.close(br.Applied, written)
	}
	return br, err
}

// batchRoom is the room decide works in beside its reports: the members
// a batch's later ones read, its sequence and net writes, and the changes
// handed to publish. None of it outlives the decision.
type batchRoom struct {
	pending, writes, changes []store.Update
	sq                       sequence
}

var batchRooms = sync.Pool{New: func() any { return new(batchRoom) }}

// put empties the room — it keeps no update or fixpoint alive — and pools
// it.
func (r *batchRoom) put() {
	clear(r.pending)
	clear(r.writes)
	clear(r.changes)
	clear(r.sq)
	batchRooms.Put(r)
}

// member returns decide's i-th update and the witnesses its plan found.
func (c *Checker) member(us []store.Update, plans []PlanReport, i int) (store.Update, []Witness) {
	switch {
	case plans == nil:
		return us[i], nil
	case plans[i].fp != c.fp:
		return plans[i].update, nil // planned against another constraint set
	}
	return plans[i].update, plans[i].Witnesses
}

// netWrites appends to out what applying decide's updates in order
// does, as one write per tuple: the last update of each, in the order of
// each tuple's first.
func (c *Checker) netWrites(out []store.Update, us []store.Update, plans []PlanReport) []store.Update {
	for i := 0; i < max(len(us), len(plans)); i++ {
		u, _ := c.member(us, plans, i)
		j := slices.IndexFunc(out, func(w store.Update) bool { return w.Relation == u.Relation && w.Tuple.Equal(u.Tuple) })
		if j < 0 {
			out = append(out, u)
		} else {
			out[j] = u
		}
	}
	return out
}

// sequence is what deciding a batch keeps between its members, per
// constraint in registration order.
type sequence []struct {
	// fix is the kept fixpoint whose open overlay holds what earlier
	// members derived on it.
	fix *eval.Fixpoint
	// out: an earlier member wrote a relation the constraint reads, and
	// not through fix — its rows no longer describe the pending state, so
	// the constraint's later members evaluate from scratch.
	out bool
}

// admitted notes what the admitted member u did to the batch: the
// fixpoints it opened (dyn, nil when it holds none), and the constraints
// that read its relation but did not decide it on their fixpoint.
func (sq sequence) admitted(ks []*Constraint, p *program, u store.Update, dyn []dynOutcome) {
	for i, k := range ks {
		j := slices.Index(p.dynamic, i)
		if j >= 0 && j < len(dyn) && dyn[j].fix != nil {
			sq[i].fix = dyn[j].fix
			continue
		}
		if _, reads := slices.BinarySearch(k.edb, u.Relation); reads {
			sq[i].out = true
		}
	}
}

// close ends the overlays the batch opened: folded where its writes were
// made (fold) and the constraint's fixpoint saw every write to what it
// reads, dropped everywhere else.
func (sq sequence) close(fold bool, writes []store.Update) {
	for i := range sq {
		if f := sq[i].fix; f != nil {
			settle(f, fold && !sq[i].out, writes)
		}
	}
}

// closeAll ends the overlays one decision holds on the fixpoints that
// decided it (settle).
func closeAll(dyn []dynOutcome, fold bool, writes []store.Update) {
	for i := range dyn {
		if f := dyn[i].fix; f != nil {
			settle(f, fold, writes)
		}
	}
}

// settle folds f's open overlay, accounting each of the writes that put
// what it derived into the store, or drops it (!fold).
func settle(f *eval.Fixpoint, fold bool, writes []store.Update) {
	f.Close(fold)
	for i := 0; fold && i < len(writes); i++ {
		f.Wrote(writes[i].Relation)
	}
}
