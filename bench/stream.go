package main

import (
	"math/rand"

	"repro/internal/store"
)

// opKind is the request arm of one operation.
type opKind uint8

const (
	opCheck opKind = iota
	opApply
	opBatch
)

var kindNames = [...]string{"check", "apply", "batch"}

// op is one generated request together with the answer the generator
// knows by construction. Streams are built so that this answer does not
// depend on how the callers' requests interleave.
type op struct {
	kind   opKind
	u      store.Update   // check, apply
	us     []store.Update // batch
	atomic bool
	// admit is the expected verdict of a check or apply; for a batch,
	// applied is the expected number of updates left in the store.
	admit   bool
	applied int
	// keys are the updates' keys for the tracing decorators, and label
	// the op's span label.
	keys []string
}

// decisions is how many updates the op asks the checker to decide.
func (o *op) decisions() int {
	if o.kind == opBatch {
		return len(o.us)
	}
	return 1
}

// updateKey identifies an in-flight update to the tracing decorators.
// Callers work in disjoint key bands, so no two updates in flight share
// a key.
func updateKey(u store.Update) string { return u.Relation + "|" + u.Tuple.Key() }

func batchKeys(us []store.Update) []string {
	keys := make([]string, len(us))
	for i, u := range us {
		keys[i] = updateKey(u)
	}
	return keys
}

func invert(u store.Update) store.Update {
	u.Insert = !u.Insert
	return u
}

// cycle builds one caller's op list. Every applied insert is deleted
// again later (bounded store growth, as cmd/ccload does it), and the
// list is cut into segments of equal length that each end with nothing
// pending: after any whole number of segments the store is back at its
// seeded contents, so a cycle can be replayed for as long as a run lasts
// and a prefix of whole segments can be handed to the oracle.
type cycle struct {
	ops     []op
	pending []store.Update // applied inserts that still await their delete
	// maxPending bounds how far inserts run ahead of their deletes; below
	// it, coin decides between a fresh insert and a delete.
	maxPending int
	coin       *deck
	// target is the op count the open segment must end at.
	target int
	// segEnds[i] is the op count at the end of segment i.
	segEnds []int
}

// begin opens a segment of exactly n ops.
func (c *cycle) begin(n int) { c.target = len(c.ops) + n }

// open reports whether the segment has room for another op: every
// pending insert still costs one op, its delete.
func (c *cycle) open() bool { return len(c.ops)+len(c.pending) < c.target }

// fits reports whether an op that leaves adds inserts pending still fits.
func (c *cycle) fits(adds int) bool { return len(c.ops)+len(c.pending)+1+adds <= c.target }

// deck deals small integers from a shuffled multiset, without
// replacement, and reshuffles when it runs out: drawing the arms of a
// stream from a deck instead of rolling a die per op keeps the mix exact
// to within one deck.
type deck struct {
	rng   *rand.Rand
	cards []int
	pos   int
}

// newDeck holds counts[i] cards of value i.
func newDeck(rng *rand.Rand, counts ...int) *deck {
	d := &deck{rng: rng}
	for v, n := range counts {
		for ; n > 0; n-- {
			d.cards = append(d.cards, v)
		}
	}
	d.pos = len(d.cards)
	return d
}

// permDeck deals 0..n-1, each once per round.
func permDeck(rng *rand.Rand, n int) *deck {
	counts := make([]int, n)
	for i := range counts {
		counts[i] = 1
	}
	return newDeck(rng, counts...)
}

func (d *deck) draw() int {
	if d.pos == len(d.cards) {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
		d.pos = 0
	}
	d.pos++
	return d.cards[d.pos-1]
}

// shapeRand seeds the decks that decide what kind of op comes next. It
// does not depend on the run's seed: every seed gives caller i the same
// sequence of arms — the same mix, the same counts, the same batches —
// and its own tuples, keys and interleaving. Counts and shares then repeat
// across seeds, and a difference between two commits is the commits'.
func shapeRand(caller int) *rand.Rand { return rand.New(rand.NewSource(0x5eed + int64(caller))) }

func newCycle(shape *rand.Rand, maxPending int) *cycle {
	return &cycle{maxPending: maxPending, coin: newDeck(shape, 1, 1)}
}

func (c *cycle) check(u store.Update, admit bool) {
	c.ops = append(c.ops, op{kind: opCheck, u: u, admit: admit, keys: []string{updateKey(u)}})
}

// apply appends an apply; an admitted insert becomes pending.
func (c *cycle) apply(u store.Update, admit bool) {
	c.ops = append(c.ops, op{kind: opApply, u: u, admit: admit, keys: []string{updateKey(u)}})
	if admit && u.Insert {
		c.pending = append(c.pending, u)
	}
}

// batch appends a batch of inserts. bad is the index of a violating
// update, or -1: an atomic batch with one is rolled back whole, a
// non-atomic one skips it.
func (c *cycle) batch(us []store.Update, atomic bool, bad int) {
	o := op{kind: opBatch, us: us, atomic: atomic, admit: bad < 0, applied: len(us), keys: batchKeys(us)}
	switch {
	case bad >= 0 && atomic:
		o.applied = 0
	case bad >= 0:
		o.applied = len(us) - 1
	}
	c.ops = append(c.ops, o)
	if o.applied == 0 {
		return
	}
	for i, u := range us {
		if i != bad {
			c.pending = append(c.pending, u)
		}
	}
}

// wantUndo reports whether the next apply should be the delete of a
// pending insert: always at the bound, otherwise every second time.
func (c *cycle) wantUndo() bool {
	if len(c.pending) == 0 {
		return false
	}
	return len(c.pending) >= c.maxPending || c.coin.draw() == 0
}

// undo deletes the most recent pending insert.
func (c *cycle) undo() {
	u := c.pending[len(c.pending)-1]
	c.pending = c.pending[:len(c.pending)-1]
	c.apply(invert(u), true)
}

// undoBatch deletes up to n pending inserts in one atomic batch.
func (c *cycle) undoBatch(n int, atomic bool) {
	if n > len(c.pending) {
		n = len(c.pending)
	}
	us := make([]store.Update, n)
	for i := range us {
		us[i] = invert(c.pending[len(c.pending)-1-i])
	}
	c.pending = c.pending[:len(c.pending)-n]
	c.ops = append(c.ops, op{kind: opBatch, us: us, atomic: atomic, admit: true, applied: n, keys: batchKeys(us)})
}

// endSegment deletes everything pending and marks the boundary.
func (c *cycle) endSegment() {
	for len(c.pending) > 0 {
		c.undo()
	}
	c.segEnds = append(c.segEnds, len(c.ops))
}
