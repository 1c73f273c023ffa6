package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/netdist"
	"repro/internal/relation"
	"repro/internal/serve"
	"repro/internal/store"
	gen "repro/internal/workload"
)

// dist_sharded: a netdist coordinator over the Loopback transport (which
// round-trips real frames). dept is hash-sharded over four sites, r lives
// whole on a fifth, emp and l are local; every site answers after a fixed
// injected latency. A serve.Server with eight apply workers fronts the
// coordinator in process — no HTTP, no JSON — and sixteen closed-loop
// callers keep it busy while the workers wait on the sites.

const (
	distShards  = 4
	distCallers = 16
	distWorkers = 8
	// siteLatency is what Loopback.SetLatency is asked for. It is a
	// time.Sleep, and on this sandbox a sleep of any length below a
	// millisecond takes about 1.1 ms: the measured cost of a round trip is
	// the sandbox's timer, not a network's.
	siteLatency = time.Millisecond
	// Written dept keys start here, one band per caller; the seeded keys
	// the emp inserts refer to lie below and are never written.
	deptWriteBase = 1_000_000
	ghostDept     = 999_999
)

func siteName(i int) string { return fmt.Sprintf("site%d", i) }

func distConstraints() []constraint {
	return []constraint{
		{"referential", "panic :- emp(E,D) & not dept(D)."},
		{"forbidden-interval", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."},
	}
}

type distSizes struct{ deptKeys, emps, intervals int }

// distCycle builds one caller's stream. Of a hundred requests, 30 check an
// emp insert with a Zipf-skewed dept key (one keyed fetch from the owning
// shard; one in ten names a ghost department); 45 are applies — emp
// inserts (keyed fetch) and dept inserts (propagated to the owning
// shard), and the deletes that undo them (emp: local; dept: propagated);
// 20 check an l insert, half of them inside a seeded interval (decided by
// the local-data test, no wire) and half not (r is scanned); 5 are
// batches of sixteen, atomic or not. Three requests in four need the
// wire, so the median request is a remote one and does not sit between
// the two modes.
func distCycle(shape, rng *rand.Rand, band int, sz distSizes, ls []relation.Tuple, segments, segOps int) *cycle {
	const batchSize = 16
	c := newCycle(shape, 32)
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(sz.deptKeys-1))
	var seq int64
	emp := func(ghost bool) store.Update {
		seq++
		d := int64(zipf.Uint64())
		if ghost {
			d = ghostDept
		}
		return store.Ins("emp", relation.TupleOf(ast.Str(fmt.Sprintf("b%d-h%d", band, seq)), ast.Int(d)))
	}
	dept := func() store.Update {
		seq++
		return store.Ins("dept", relation.Ints(deptWriteBase+int64(band)*deptWriteBase+seq))
	}
	// arms: 0 batch, 1 emp apply, 2 dept apply, 3 l check, 4 emp check.
	// ls: 0 covers an r point, 1 free, 2 inside a seeded interval.
	arms, ghosts, ls3 := newDeck(shape, 5, 20, 25, 20, 30), newDeck(shape, 9, 1), newDeck(shape, 1, 4, 5)
	seeds, atomics, bads := permDeck(rng, len(ls)), newDeck(shape, 1, 1), newDeck(shape, 1, 3)
	for s := 0; s < segments; s++ {
		for c.begin(segOps); c.open(); {
			switch arm := arms.draw(); {
			case arm == 0 && len(c.pending) >= batchSize:
				c.undoBatch(batchSize, atomics.draw() == 0)
			case arm == 0 && c.fits(batchSize):
				us := make([]store.Update, batchSize)
				for i := range us {
					us[i] = emp(false)
				}
				atomic, bad := atomics.draw() == 0, -1
				if bads.draw() == 0 {
					// A ghost department at the end: the atomic batch is rolled
					// back — dept writes un-propagated — the other skips it.
					bad = batchSize - 1
					us[0], us[1], us[bad] = dept(), dept(), emp(true)
				}
				c.batch(us, atomic, bad)
			case arm <= 2 && c.wantUndo():
				c.undo()
			case arm == 1 && c.fits(1):
				ghost := ghosts.draw() == 1
				c.apply(emp(ghost), !ghost)
			case arm == 2 && c.fits(1):
				c.apply(dept(), true)
			case arm == 3:
				seed := ls[seeds.draw()]
				lo, hi := numerator(seed[0]), numerator(seed[1])
				switch ls3.draw() {
				case 0: // covers an r point: violates, and needs r to know
					lo = rBase + rng.Int63n(rPoints) - 1
					c.check(store.Ins("l", relation.Ints(lo, lo+2+int64(band))), false)
				case 1: // covers nothing and nothing covers it
					seq++
					lo = applyBase + int64(band)*applyBase + 4*seq
					c.check(store.Ins("l", relation.Ints(lo, lo+2)), true)
				default: // inside a seeded interval
					c.check(store.Ins("l", relation.Ints(lo+(hi-lo)/2, hi)), true)
				}
			default:
				ghost := ghosts.draw() == 1
				c.check(emp(ghost), !ghost)
			}
		}
		c.endSegment()
	}
	return c
}

type distInst struct {
	mirror  *store.Store
	siteDBs []*store.Store // distShards dept shards, then r's site
	sites   []*netdist.Server
	co      *netdist.Coordinator
	srv     *serve.Server
	callers []*caller
	fill    func(all *store.Store) error
	tr      *tracer
	// Of the last traced repetition.
	tracedDecisions int
	tracedNetTime   time.Duration
}

func buildDistSharded(seed int64, tiny bool, tr *tracer) (instance, error) {
	return buildDist(seed, tiny, tr, distCallers, distWorkers)
}

// buildDist is buildDistSharded with the concurrency as parameters: with
// one caller and one worker the wire counts repeat exactly.
func buildDist(seed int64, tiny bool, tr *tracer, ncallers, workers int) (instance, error) {
	sz, segments, segOps := distSizes{2000, 500, 200}, 2, 125
	if tiny {
		sz, segments, segOps = distSizes{100, 100, 40}, 1, 40
	}
	// fill writes the seeded data of every relation into one store: the
	// oracle's view. The deployment splits it below.
	var ls []relation.Tuple
	fill := func(all *store.Store) error {
		rng := rand.New(rand.NewSource(seed))
		for k := 0; k < sz.deptKeys; k++ {
			if _, err := all.Insert("dept", relation.Ints(int64(k))); err != nil {
				return err
			}
		}
		for i := 0; i < sz.emps; i++ {
			t := relation.TupleOf(ast.Str(fmt.Sprintf("e%d", i)), ast.Int(rng.Int63n(int64(sz.deptKeys))))
			if _, err := all.Insert("emp", t); err != nil {
				return err
			}
		}
		ls = gen.Intervals(rng, sz.intervals, lWidth, lSpread)
		for _, t := range ls {
			if _, err := all.Insert("l", t); err != nil {
				return err
			}
		}
		for i := int64(0); i < rPoints; i++ {
			if _, err := all.Insert("r", relation.Ints(rBase+i)); err != nil {
				return err
			}
		}
		return nil
	}
	all := store.New()
	if err := fill(all); err != nil {
		return nil, err
	}

	d := &distInst{mirror: store.New(), fill: fill, tr: tr}
	lb := netdist.NewLoopback()
	rp := netdist.RelPlacement{KeyCol: 0}
	for i := 0; i <= distShards; i++ {
		db, rels := store.New(), []string{"dept"}
		if i == distShards {
			rels = []string{"r"}
		} else {
			rp.Shards = append(rp.Shards, netdist.ShardSpec{Leader: siteName(i)})
		}
		srv := netdist.NewServer(db, rels)
		lb.AddSite(siteName(i), srv)
		lb.SetLatency(siteName(i), siteLatency)
		d.siteDBs, d.sites = append(d.siteDBs, db), append(d.sites, srv)
	}
	place := netdist.Placement{
		"dept": rp,
		"r":    netdist.RelPlacement{Shards: []netdist.ShardSpec{{Leader: siteName(distShards)}}},
	}
	for _, t := range all.Tuples("dept") {
		if _, err := d.siteDBs[place.ShardOf("dept", t[0])].Insert("dept", t); err != nil {
			return nil, err
		}
	}
	for _, rel := range []string{"emp", "l", "r"} {
		db := d.mirror
		if rel == "r" {
			db = d.siteDBs[distShards]
		}
		for _, t := range all.Tuples(rel) {
			if _, err := db.Insert(rel, t); err != nil {
				return nil, err
			}
		}
	}
	var transport netdist.Transport = lb
	if tr != nil {
		tr.remote = true
		transport = tracedTransport{lb, tr}
	}
	co, err := netdist.NewPlaced(d.mirror, place, transport, netdist.Options{
		Checker:      core.Options{LocalRelations: []string{"emp", "l"}},
		Timeout:      2 * time.Second,
		ApplyWorkers: workers,
	})
	if err != nil {
		return nil, err
	}
	d.co = co
	if err := addConstraints(co.Checker, distConstraints()); err != nil {
		return nil, err
	}
	var backend serve.Backend = netdist.ServeBackend{Co: co}
	if tr != nil {
		backend = tracedBackend{netdist.ServeBackend{Co: co}, tr}
	}
	d.srv = serve.New(backend, serve.Config{QueueDepth: 4096, ApplyWorkers: workers})
	for i := 0; i < ncallers; i++ {
		rng := rand.New(rand.NewSource(callerSeed(seed, i)))
		client := fmt.Sprintf("bench-%d", i)
		cyc := distCycle(shapeRand(i), rng, i, sz, ls, segments, segOps)
		c := newCaller(cyc, func(o *op) (bool, bool) { return doInproc(d.srv, client, o) })
		c.depth = func() int { return d.srv.Stats().QueueDepth }
		d.callers = append(d.callers, c)
	}
	if failed, _ := closedLoop(d.callers, nil, false, true); failed > 0 {
		d.close()
		return nil, fmt.Errorf("warm-up: %d requests failed or disagree with the generator", failed)
	}
	return d, nil
}

// doInproc sends one op straight into the server.
func doInproc(srv *serve.Server, client string, o *op) (admitted, ok bool) {
	switch o.kind {
	case opCheck:
		rep, err := srv.Check(client, o.u)
		return rep.Applied, err == nil && rep.Applied == o.admit
	case opApply:
		rep, err := srv.Apply(client, o.u)
		return rep.Applied, err == nil && rep.Applied == o.admit
	default:
		out, err := srv.Batch(client, o.us, o.atomic)
		return out.Applied == len(o.us), err == nil && out.Applied == o.applied
	}
}

func (d *distInst) chunk(traced bool) chunkStats {
	var cs chunkStats
	cs.requests, cs.decisions = streamTotals(d.callers)
	var net0 time.Duration
	if traced {
		net0 = d.co.Stats().NetTime
	}
	cs.failed, cs.elapsed = closedLoop(d.callers, d.tr, traced, false)
	if traced {
		d.tracedNetTime = d.co.Stats().NetTime - net0
		d.tracedDecisions = cs.decisions
	}
	for _, c := range d.callers {
		cs.lat = append(cs.lat, c.lat...)
	}
	return cs
}

func (d *distInst) handles() handles {
	return handles{chk: d.co.Checker, progs: parseConstraints(distConstraints()),
		sample: sampleUpdates(d.callers[0].cyc.ops, 512), srv: d.srv, co: d.co, sites: d.sites}
}

func (d *distInst) close() { d.srv.Close() }

// verify: the oracle sees one store holding every relation. Its final
// store must equal the coordinator's mirror, and the sites' stores,
// merged, must hold what the mirror holds of the remote relations.
func (d *distInst) verify(budget time.Duration) (checked, failed int, err error) {
	checked, failed, err = verifyCallers(d.fill, distConstraints(), d.callers, d.mirror, budget)
	if err != nil {
		return 0, 0, err
	}
	merged, remote := store.New(), store.New()
	for i, db := range d.siteDBs {
		rel := "dept"
		if i == distShards {
			rel = "r"
		}
		for _, t := range db.Tuples(rel) {
			if _, err := merged.Insert(rel, t); err != nil {
				return 0, 0, err
			}
		}
	}
	for _, rel := range []string{"dept", "r"} {
		for _, t := range d.mirror.Tuples(rel) {
			if _, err := remote.Insert(rel, t); err != nil {
				return 0, 0, err
			}
		}
	}
	if sortedDump(merged) != sortedDump(remote) {
		failed++
	}
	return checked + 1, failed, nil
}

// layerMetrics: the netdist layers, and the server's in-process hand-off.
func (d *distInst) layerMetrics(m metrics, spans []span, o runOpts) error {
	self := selfTimes(spans)
	var rpc, coord, handoff, busy []float64
	for i := range spans {
		s := &spans[i]
		switch {
		case s.Layer == layRPC:
			rpc = append(rpc, float64(s.dur()))
		case s.Layer == layBackend:
			busy = append(busy, float64(s.dur()))
			if s.Op != "batch" {
				coord = append(coord, float64(self[s.ID]))
			}
		}
	}
	for _, r := range requestsOf(spans) {
		if r.root != nil && !strings.HasPrefix(r.root.Op, "batch") {
			handoff = append(handoff, float64(r.root.dur()-r.by[layBackend]))
		}
	}
	var busyNS float64
	for _, b := range busy {
		busyNS += b
	}
	ops := float64(d.tracedDecisions)
	m["netdist.rpc_us"] = median(rpc) / 1e3
	m["netdist.rpcs_per_op"] = share(float64(d.tr.rpcs.Load()), ops)
	m["netdist.wire_bytes_per_op"] = share(float64(d.tr.wireBytes.Load()), ops)
	m["netdist.coord_self_us"] = median(coord) / 1e3
	m["netdist.net_time_share"] = share(float64(d.tracedNetTime), busyNS)
	m["serve.inproc_us"] = median(handoff) / 1e3
	m["serve.backend_us"] = median(busy) / 1e3
	m["serve.queue_depth_max"] = float64(queueDepthMax(d.callers))
	return nil
}
