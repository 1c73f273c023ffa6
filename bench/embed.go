package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/store"
	gen "repro/internal/workload"
)

// The embedded workloads: an application holds a core.Checker and asks
// it, on its write path and from one goroutine, whether an update may be
// applied.

// flatConstraints are the flat denial constraints of embed_flat and
// serve_http: the three employee constraints of the paper's running
// example plus the D1 forbidden-interval constraint. Every one of them
// is residual-eligible.
func flatConstraints() []constraint {
	cons := []constraint{{"forbidden-interval", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."}}
	std := gen.StandardEmployeeConstraints()
	for _, name := range []string{"referential", "range-low", "range-high"} {
		cons = append(cons, constraint{name, std[name]})
	}
	return cons
}

// recursiveConstraints are constraints the residual compiler must
// refuse: acyclicity needs a recursive helper, and the second constraint
// goes through a helper predicate as well.
func recursiveConstraints() []constraint {
	return []constraint{
		{"acyclic", `reach(X,Y) :- edge(X,Y).
			reach(X,Y) :- reach(X,Z) & edge(Z,Y).
			panic :- reach(X,X).`},
		{"banned-hub", `hub(X) :- edge(X,Y) & edge(X,Z) & Y < Z.
			panic :- hub(X) & banned(X).`},
	}
}

// Coordinates of the forbidden-interval data. Seeded l intervals lie in
// [0, lSpread+lWidth]; seeded r points start at rBase; applied l inserts
// go far above both, so they are always safe and cover no probe point.
const (
	lWidth, lSpread = 20, 200
	rBase           = 10_000
	rPoints         = 50
	applyBase       = 1_000_000
)

// flatSizes are the seeded store's sizes.
type flatSizes struct{ emps, depts, intervals int }

// seedFlat fills db with the employee database, the l intervals and the
// r points, and returns the intervals (the generator needs them to know
// which probe points are covered).
func seedFlat(rng *rand.Rand, db *store.Store, sz flatSizes) ([]relation.Tuple, error) {
	if err := gen.EmployeeDB(rng, db, sz.depts, sz.emps); err != nil {
		return nil, err
	}
	ls := gen.Intervals(rng, sz.intervals, lWidth, lSpread)
	for _, t := range ls {
		if _, err := db.Insert("l", t); err != nil {
			return nil, err
		}
	}
	for i := int64(0); i < rPoints; i++ {
		if _, err := db.Insert("r", relation.Ints(rBase+i)); err != nil {
			return nil, err
		}
	}
	return ls, nil
}

// flatGen draws the updates of the flat workloads in one caller's key
// band: names and coordinates carry the band, so callers never touch
// each other's tuples and verdicts do not depend on interleaving.
type flatGen struct {
	rng   *rand.Rand
	band  int
	depts int
	ls    []relation.Tuple
	seq   int64
}

func deptName(d int) string { return fmt.Sprintf("dept%02d", d) } // workload.EmployeeDB's naming

// emp draws a hire; a violating one names a ghost department or a salary
// above its department's range.
func (g *flatGen) emp(violate bool) store.Update {
	g.seq++
	d := g.rng.Intn(g.depts)
	dept, sal := deptName(d), int64(10*(d+1))+g.rng.Int63n(51)
	if violate {
		if g.rng.Intn(2) == 0 {
			dept = "ghost"
		} else {
			sal += 1000
		}
	}
	name := fmt.Sprintf("b%d-h%d", g.band, g.seq)
	return store.Ins("emp", relation.TupleOf(ast.Str(name), ast.Str(dept), ast.Int(sal)))
}

// interval draws an l insert in the caller's band above every r point
// (safe), or one that covers a seeded r point (violating).
func (g *flatGen) interval(violate bool) store.Update {
	g.seq++
	lo := int64(applyBase) + int64(g.band)*applyBase + 4*g.seq
	if violate {
		lo = rBase + g.rng.Int63n(rPoints) - 1
	}
	return store.Ins("l", relation.Ints(lo, lo+2))
}

// point draws an r insert: inside a seeded interval (violating) or
// between the seeded intervals and the r points (safe).
func (g *flatGen) point(violate bool) store.Update {
	z := int64(lSpread+lWidth+10) + g.rng.Int63n(rBase/2)
	if violate {
		z = numerator(g.ls[g.rng.Intn(len(g.ls))][0])
	}
	return store.Ins("r", relation.Ints(z))
}

func numerator(v ast.Value) int64 { return v.Num.Num().Int64() }

// violateDeck: one fresh update in five violates a constraint.
func violateDeck(shape *rand.Rand) *deck { return newDeck(shape, 4, 1) }

// flatCycle builds embed_flat's stream: 40 % checks, 60 % applies
// (inserts and the deletes that undo them).
func flatCycle(shape *rand.Rand, g *flatGen, segments, segOps int) *cycle {
	c := newCycle(shape, 32)
	arms, bad := newDeck(shape, 40, 60), violateDeck(shape)
	checks, applies := newDeck(shape, 1, 1, 2), newDeck(shape, 1, 3)
	for s := 0; s < segments; s++ {
		for c.begin(segOps); c.open(); {
			if arms.draw() == 0 || !c.fits(1) {
				violate := bad.draw() == 1
				switch checks.draw() {
				case 0:
					c.check(g.interval(violate), !violate)
				case 1:
					c.check(g.point(violate), !violate)
				default:
					c.check(g.emp(violate), !violate)
				}
				continue
			}
			if c.wantUndo() {
				c.undo()
				continue
			}
			violate := bad.draw() == 1
			if applies.draw() == 0 {
				c.apply(g.interval(violate), !violate)
			} else {
				c.apply(g.emp(violate), !violate)
			}
		}
		c.endSegment()
	}
	return c
}

// recursiveCycle builds embed_recursive's stream over an edge chain
// 0→1→…→nodes-1: four ops in ten check an edge insert (evaluated
// globally; a backward edge closes a cycle), three check an edge delete
// (harmless by polarity), three write a relation no constraint mentions.
// The global share is kept well below a half: a global decision costs a
// thousand times a cached one, and with equal shares the median latency
// would sit on the gap between the two modes and jump with the seed. So
// the median is a cheap decision and the 99th percentile a global one.
func recursiveCycle(shape, rng *rand.Rand, nodes, segments, segOps int) *cycle {
	c := newCycle(shape, 32)
	// What an edge check costs depends on the edge, so the edges come
	// from a coarse lattice that every seed covers evenly: forward edges
	// (a, a+1+4j) from every fourth node, and backward or self edges
	// (a, 4j) into every fourth node.
	var forward, backward [][2]int64
	for a := 0; a < nodes-1; a += 4 {
		for b := a + 1; b < nodes; b += 4 {
			forward = append(forward, [2]int64{int64(a), int64(b)})
		}
	}
	for a := 3; a < nodes; a += 4 {
		for b := 0; b <= a; b += 4 {
			backward = append(backward, [2]int64{int64(a), int64(b)})
		}
	}
	pick := func(edges [][2]int64) func() relation.Tuple {
		d := permDeck(rng, len(edges))
		return func() relation.Tuple { e := edges[d.draw()]; return relation.Ints(e[0], e[1]) }
	}
	safe, closing := pick(forward), pick(backward)
	arms, closes, chain := newDeck(shape, 4, 3, 3), newDeck(shape, 1, 1), permDeck(rng, nodes-1)
	var seq int64
	for s := 0; s < segments; s++ {
		for c.begin(segOps); c.open(); {
			switch arm := arms.draw(); {
			case arm == 0 && closes.draw() == 0:
				c.check(store.Ins("edge", closing()), false)
			case arm == 0:
				c.check(store.Ins("edge", safe()), true)
			case arm == 1 || !c.fits(1):
				a := int64(chain.draw())
				c.check(store.Del("edge", relation.Ints(a, a+1)), true)
			case c.wantUndo():
				c.undo()
			default:
				seq++
				c.apply(store.Ins("log", relation.Ints(seq)), true)
			}
		}
		c.endSegment()
	}
	return c
}

// embedInst is an embedded checker with its stream.
type embedInst struct {
	chk   *core.Checker
	cons  []constraint
	seed  func(*store.Store) error // refills a store with the seeded data
	cyc   *cycle
	lat   []float64
	tr    *tracer
	first []bool // the warm-up pass's verdicts, for the oracle
}

func buildEmbedFlat(seed int64, tiny bool, tr *tracer) (instance, error) {
	sz, segments, segOps := flatSizes{5000, 20, 200}, 160, 250
	if tiny {
		sz, segments, segOps = flatSizes{200, 5, 40}, 2, 300
	}
	var ls []relation.Tuple
	fill := func(db *store.Store) (err error) {
		ls, err = seedFlat(rand.New(rand.NewSource(seed)), db, sz)
		return err
	}
	db := store.New()
	if err := fill(db); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	g := &flatGen{rng: rng, depts: sz.depts, ls: ls}
	return newEmbedInst(db, flatConstraints(), fill, flatCycle(shapeRand(0), g, segments, segOps), tr)
}

func buildEmbedRecursive(seed int64, tiny bool, tr *tracer) (instance, error) {
	nodes, segments, segOps := 64, 6, 250
	if tiny {
		nodes, segments, segOps = 12, 2, 100
	}
	fill := func(db *store.Store) error {
		for i := int64(0); i < int64(nodes)-1; i++ {
			if _, err := db.Insert("edge", relation.Ints(i, i+1)); err != nil {
				return err
			}
		}
		// A banned node outside the chain: the constraint is live but no
		// chain node can violate it.
		_, err := db.Insert("banned", relation.Ints(int64(nodes)+1000))
		return err
	}
	db := store.New()
	if err := fill(db); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	return newEmbedInst(db, recursiveConstraints(), fill, recursiveCycle(shapeRand(0), rng, nodes, segments, segOps), tr)
}

// serialChecker is the options of the checker behind embed_flat,
// embed_recursive and serve_http: the defaults, except that a decision
// runs its constraints on the calling goroutine. By default
// (Workers = GOMAXPROCS) every decision starts that many goroutines and
// waits for them, and on this 2-vCPU box the hand-off — waking the other,
// halted CPU — is half of a cheap decision and as steady as the
// hypervisor (README, Workloads). core.pool_overhead_share measures it.
var serialChecker = core.Options{Workers: 1}

func newEmbedInst(db *store.Store, cons []constraint, fill func(*store.Store) error, cyc *cycle, tr *tracer) (instance, error) {
	chk := core.New(db, serialChecker)
	if err := addConstraints(chk, cons); err != nil {
		return nil, err
	}
	e := &embedInst{chk: chk, cons: cons, seed: fill, cyc: cyc, tr: tr,
		lat: make([]float64, len(cyc.ops))}
	e.first = make([]bool, len(cyc.ops))
	if cs := e.pass(false, e.first); cs.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d verdicts disagree with the generator", cs.failed, cs.requests)
	}
	return e, nil
}

func (e *embedInst) chunk(traced bool) chunkStats { return e.pass(traced, nil) }

// pass runs the cycle once. Latencies are the gaps between consecutive
// timestamps, one clock read per op.
func (e *embedInst) pass(traced bool, verdicts []bool) chunkStats {
	cs := chunkStats{requests: len(e.cyc.ops), decisions: len(e.cyc.ops), lat: e.lat}
	start := time.Now()
	prev := start
	for i := range e.cyc.ops {
		o := &e.cyc.ops[i]
		var rep core.Report
		var err error
		var t0 int64
		if traced {
			t0 = e.tr.now()
		}
		if o.kind == opCheck {
			rep, err = e.chk.Check(o.u)
		} else {
			rep, err = e.chk.Apply(o.u)
		}
		if traced {
			// The request and the backend call are the same interval here:
			// nothing sits between the application and the checker.
			t1 := e.tr.now()
			req, id := e.tr.reqs.Add(1), e.tr.ids.Add(2)
			e.tr.record(layRequest, req, 0, id-1, closedLoad.labels[o.kind], t0, t1)
			e.tr.record(layBackend, req, id-1, id, kindNames[o.kind], t0, t1)
		}
		if err != nil || rep.Applied != o.admit {
			cs.failed++
		}
		if verdicts != nil {
			verdicts[i] = rep.Applied
		}
		now := time.Now()
		e.lat[i] = float64(now.Sub(prev))
		prev = now
	}
	cs.elapsed = prev.Sub(start)
	return cs
}

func (e *embedInst) handles() handles {
	return handles{chk: e.chk, progs: parseConstraints(e.cons), sample: sampleUpdates(e.cyc.ops, 512)}
}

func (e *embedInst) layerMetrics(metrics, []span, runOpts) error { return nil }

func (e *embedInst) close() {}

// verify replays the stream through the oracle and compares it with the
// warm-up pass's verdicts, then compares the final stores: every segment
// is net zero, so both must hold the seeded data.
func (e *embedInst) verify(budget time.Duration) (checked, failed int, err error) {
	db := store.New()
	if err := e.seed(db); err != nil {
		return 0, 0, err
	}
	o, err := newOracle(db, e.cons)
	if err != nil {
		return 0, 0, err
	}
	if err := o.run([]*cycle{e.cyc}, [][]bool{e.first}, budget); err != nil {
		return 0, 0, err
	}
	if sortedDump(db) != sortedDump(e.chk.DB()) {
		o.failed++
	}
	return o.checked + 1, o.failed, nil
}
