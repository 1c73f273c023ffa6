package netdist

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/store"
)

func TestParseShardSpec(t *testing.T) {
	rel, rp, err := ParseShardSpec("dept@0=s0, s1,s2")
	if err != nil {
		t.Fatal(err)
	}
	if rel != "dept" || rp.KeyCol != 0 || len(rp.Shards) != 3 || rp.Shards[1].Leader != "s1" {
		t.Fatalf("parsed %q %+v", rel, rp)
	}
	if !rp.Sharded() {
		t.Fatal("three shards must report Sharded")
	}
	for _, bad := range []string{"dept=s0", "dept@x=s0", "@0=s0", "dept@0=", "dept@0=s0,,s1", "dept@-1=s0", "dept@0=s0,s1,s0"} {
		if _, _, err := ParseShardSpec(bad); err == nil {
			t.Errorf("spec %q: want error", bad)
		}
	}
}

// FuzzPlacementSpecs feeds one text to the two placement flag parsers:
// neither panics, and what each accepts makes a placement NewPlaced takes
// on its own.
func FuzzPlacementSpecs(f *testing.F) {
	for _, seed := range []string{
		"127.0.0.1:7073=dept,salRange", "dept@0=s0, s1,s2", "dept/1 = s9",
		"dept@0=s0,s0", "a=r,r", "dept@1=s0", "r/3=x=y", "dept/-1=s9", "=",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if spec, err := ParseSiteSpec(s); err == nil {
			if err := PlacementFromSites([]SiteSpec{spec}).validate(); err != nil {
				t.Errorf("site spec %q parsed to %+v: %v", s, spec, err)
			}
		}
		if rel, rp, err := ParseShardSpec(s); err == nil {
			if err := (Placement{rel: rp}).validate(); err != nil {
				t.Errorf("shard spec %q parsed to %s %+v: %v", s, rel, rp, err)
			}
		}
	})
}

func TestPlacementValidate(t *testing.T) {
	lb := NewLoopback()
	for name, place := range map[string]Placement{
		"no shards":  {"dept": {KeyCol: 0}},
		"no key col": {"dept": {KeyCol: -1, Shards: []ShardSpec{{Leader: "a"}, {Leader: "b"}}}},
		"dup site":   {"dept": {KeyCol: 0, Shards: []ShardSpec{{Leader: "a"}, {Leader: "a"}}}},
		"no leader":  {"dept": {KeyCol: 0, Shards: []ShardSpec{{Leader: ""}}}},
	} {
		if _, err := NewPlaced(store.New(), place, lb, Options{}); err == nil {
			t.Errorf("%s: want NewPlaced to refuse", name)
		}
	}
}

// shardArm describes one deployment shape of the same logical database
// for the oracle test.
type shardArm struct {
	name   string
	shards int // dept and r shard count (1 = whole-relation single site)
	// noLocalData sets the checker's DisableLocalData: no local
	// certificates, no phase 3. batchWorkers is Options.ApplyWorkers.
	noLocalData  bool
	batchWorkers int
}

// buildShardedArm deploys emp and l at the coordinator and dept and r
// across `shards` loopback sites, hash-partitioned by column 0 when
// shards > 1, seeding every store identically across arms. Returns the
// coordinator, the transport, and the per-site stores.
func buildShardedArm(t *testing.T, arm shardArm) (*Coordinator, *Loopback, map[string]*store.Store) {
	t.Helper()
	sites := make([]string, arm.shards)
	for i := range sites {
		sites[i] = fmt.Sprintf("s%d", i)
	}
	place := Placement{}
	for _, rel := range []string{"dept", "r"} {
		rp := RelPlacement{KeyCol: 0}
		for _, site := range sites {
			rp.Shards = append(rp.Shards, ShardSpec{Leader: site})
		}
		place[rel] = rp
	}

	leaders := map[string]*store.Store{}
	lb := NewLoopback()
	for _, site := range sites {
		db := store.New()
		leaders[site] = db
		lb.AddSite(site, NewServer(db, []string{"dept", "r"}))
	}

	// Identical seed data in every arm: dept keys 0..29, r points, each
	// tuple landed on its owning shard.
	seed := func(rel string, tuples []relation.Tuple) {
		rp := place[rel]
		for _, tp := range tuples {
			site := rp.Shards[0].Leader
			if rp.Sharded() {
				site = rp.Shards[place.ShardOf(rel, tp[0])].Leader
			}
			if _, err := leaders[site].Insert(rel, tp); err != nil {
				t.Fatal(err)
			}
		}
	}
	var deptSeed, rSeed []relation.Tuple
	for k := int64(0); k < 30; k++ {
		deptSeed = append(deptSeed, relation.Ints(k))
	}
	for _, p := range []int64{15, 35, 60} {
		rSeed = append(rSeed, relation.Ints(p))
	}
	seed("dept", deptSeed)
	seed("r", rSeed)

	local := store.New()
	for i := int64(0); i < 10; i++ {
		if _, err := local.Insert("emp", relation.Ints(1000+i, i%30)); err != nil {
			t.Fatal(err)
		}
	}
	for _, iv := range [][2]int64{{0, 10}, {20, 30}, {40, 50}} {
		if _, err := local.Insert("l", relation.Ints(iv[0], iv[1])); err != nil {
			t.Fatal(err)
		}
	}

	co, err := NewPlaced(local, place, lb, Options{
		Checker:      core.Options{LocalRelations: []string{"emp", "l"}, DisableLocalData: arm.noLocalData},
		Timeout:      time.Second,
		Backoff:      time.Millisecond,
		ApplyWorkers: arm.batchWorkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Checker.AddConstraintSource("ref", "panic :- emp(E, D) & not dept(D)."); err != nil {
		t.Fatal(err)
	}
	if err := co.Checker.AddConstraintSource("fi", "panic :- l(X, Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
		t.Fatal(err)
	}
	return co, lb, leaders
}

// dumpGlobal renders the union of the leader stores plus the
// coordinator's local relations, deterministically: what the whole
// system holds, independent of how it is partitioned.
func dumpGlobal(co *Coordinator, leaders map[string]*store.Store) string {
	tuples := map[string][]string{}
	add := func(db *store.Store, only func(string) bool) {
		for _, name := range db.Names() {
			if !only(name) {
				continue
			}
			for _, tp := range db.Tuples(name) {
				tuples[name] = append(tuples[name], tp.String())
			}
		}
	}
	for _, db := range leaders {
		add(db, func(string) bool { return true })
	}
	add(co.Checker.DB(), func(rel string) bool { _, remote := co.place[rel]; return !remote })
	rels := make([]string, 0, len(tuples))
	for rel := range tuples {
		rels = append(rels, rel)
	}
	sort.Strings(rels)
	var b strings.Builder
	for _, rel := range rels {
		sort.Strings(tuples[rel])
		fmt.Fprintf(&b, "%s: %s\n", rel, strings.Join(tuples[rel], " "))
	}
	return b.String()
}

// shardStream mixes referential (emp/dept) and interval (l/r) traffic,
// inserts and deletes, over a band small enough that rejections — emp
// referencing a missing dept, dept deletes stranding emps, intervals
// capturing r points — are common.
func shardStream(seed int64, n int) []store.Update {
	rng := rand.New(rand.NewSource(seed))
	us := make([]store.Update, n)
	for i := range us {
		switch rng.Intn(4) {
		case 0:
			u := store.Ins("emp", relation.Ints(int64(rng.Intn(50))+1000, int64(rng.Intn(40))))
			if rng.Intn(4) == 0 {
				u = store.Del("emp", u.Tuple)
			}
			us[i] = u
		case 1:
			u := store.Ins("dept", relation.Ints(int64(rng.Intn(40))))
			if rng.Intn(3) == 0 {
				u = store.Del("dept", u.Tuple)
			}
			us[i] = u
		case 2:
			lo := int64(rng.Intn(80))
			u := store.Ins("l", relation.Ints(lo, lo+int64(rng.Intn(10))))
			if rng.Intn(3) == 0 {
				u = store.Del("l", u.Tuple)
			}
			us[i] = u
		default:
			u := store.Ins("r", relation.Ints(int64(rng.Intn(100))))
			if rng.Intn(3) == 0 {
				u = store.Del("r", u.Tuple)
			}
			us[i] = u
		}
	}
	return us
}

// witnessStream is shardStream squeezed until local certificates collide:
// four departments and eight employees, so that nearly every emp insert
// finds a stored employee of its department to certify it, emp deletes
// keep taking the last witness of a department away and dept deletes
// follow them. It opens by deleting the seeded employees of those
// departments, so that every witness is one the stream can delete.
func witnessStream(seed int64, n int) []store.Update {
	const band = 4
	rng := rand.New(rand.NewSource(seed))
	us := make([]store.Update, n)
	for i := range us {
		emp := relation.Ints(2000+int64(rng.Intn(8)), int64(rng.Intn(band)))
		switch p := rng.Intn(100); {
		case i < band:
			us[i] = store.Del("emp", relation.Ints(1000+int64(i), int64(i)))
		case p < 45:
			us[i] = store.Ins("emp", emp)
		case p < 75:
			us[i] = store.Del("emp", emp)
		case p < 90:
			us[i] = store.Del("dept", relation.Ints(int64(rng.Intn(band))))
		default:
			us[i] = store.Ins("dept", relation.Ints(int64(rng.Intn(band))))
		}
	}
	return us
}

// TestShardedOracleAgreement is the scale-out oracle: the same
// randomized stream against a 1-site whole-relation deployment and a
// 4-site hash-sharded one, each applied by one worker and through the
// scheduler at 4 and 8, must produce identical verdicts, identical
// rejection indexes, an identical mirror, and an identical global store. The stream draws emp's dept keys and
// the dept keys it writes from one small band, so a dept(K) delete meets
// emp(_, K) inserts (which must keep admission order) and emp(_, K')
// inserts (which may overlap it) in every window; the reference is the
// whole-relation arm at one worker. A third stream (witnessStream) makes
// local certificates collide with the deletes of their witnesses.
func TestShardedOracleAgreement(t *testing.T) {
	arms := []shardArm{
		{name: "whole", shards: 1},
		{name: "sharded4", shards: 4},
	}
	for seed, stream := range map[int64][]store.Update{
		7: shardStream(7, 240), 23: shardStream(23, 240), 5: witnessStream(5, 240),
	} {
		var wantVerdicts []bool
		var wantMirror, wantGlobal string
		for _, arm := range arms {
			for _, workers := range []int{1, 4, 8} {
				name := fmt.Sprintf("seed %d arm %s workers %d", seed, arm.name, workers)
				co, _, leaders := buildShardedArm(t, arm)
				verdicts := make([]bool, len(stream))
				for i, r := range applyStream(co, stream, workers) {
					if r.Err != nil {
						t.Fatalf("%s update %d (%v): %v", name, i, stream[i], r.Err)
					}
					verdicts[i] = r.Report.Applied
				}
				mirror, global := dumpStore(co.Checker.DB()), dumpGlobal(co, leaders)
				if wantVerdicts == nil {
					wantVerdicts, wantMirror, wantGlobal = verdicts, mirror, global
					continue
				}
				for i := range verdicts {
					if verdicts[i] != wantVerdicts[i] {
						t.Fatalf("%s: verdict diverged at update %d (%v): got applied=%v, sequential whole-relation arm=%v",
							name, i, stream[i], verdicts[i], wantVerdicts[i])
					}
				}
				if mirror != wantMirror {
					t.Fatalf("%s: mirror diverged\narm:\n%s\nwhole:\n%s", name, mirror, wantMirror)
				}
				if global != wantGlobal {
					t.Fatalf("%s: global store diverged\narm:\n%s\nwhole:\n%s", name, global, wantGlobal)
				}
				st := co.Stats()
				if arm.shards > 1 && st.ShardRouted == 0 {
					t.Errorf("%s: no probe was shard-routed", name)
				}
				if st.KeyFetches != st.ShardRouted {
					t.Errorf("%s: %d key fetches, %d routed reads; every routed read is a key fetch", name, st.KeyFetches, st.ShardRouted)
				}
			}
		}
	}
}

// TestShardRoutingShipsFewerTuples pins the point of bounded reads on
// both placements: deciding emp inserts ships at most the key group each
// check probes, whether dept is sharded or whole on one site, and only a
// check that reads dept unbounded ships all of it.
func TestShardRoutingShipsFewerTuples(t *testing.T) {
	wire := func(shards int) (keyed, unbounded Stats) {
		co, _, _ := buildShardedArm(t, shardArm{shards: shards})
		if err := co.Checker.AddConstraintSource("closing", "panic :- closed(X) & dept(Y)."); err != nil {
			t.Fatal(err)
		}
		before := co.Stats()
		for i := int64(0); i < 40; i++ {
			u := store.Ins("emp", relation.Ints(2000+i, i%30))
			if rep, err := co.Apply(u); err != nil || !rep.Applied {
				t.Fatalf("emp insert %d: err=%v applied=%v", i, err, rep.Applied)
			}
		}
		keyed = co.Stats()
		if rep, err := co.Check(store.Ins("closed", relation.Ints(1))); err != nil || rep.Applied {
			t.Fatalf("closing with departments left: err=%v applied=%v", err, rep.Applied)
		}
		unbounded = co.Stats()
		keyed.RoundTrips -= before.RoundTrips
		keyed.WireTuples -= before.WireTuples
		unbounded.WireTuples -= keyed.WireTuples + before.WireTuples
		return keyed, unbounded
	}
	for _, shards := range []int{1, 4} {
		keyed, unbounded := wire(shards)
		// Every group holds one department: a fetch ships one tuple at most.
		if keyed.RoundTrips == 0 || keyed.WireTuples > int64(keyed.RoundTrips) {
			t.Errorf("%d shards: keyed checks took %d round trips for %d tuples, want a group of at most one each",
				shards, keyed.RoundTrips, keyed.WireTuples)
		}
		if shards > 1 && keyed.ShardRouted == 0 {
			t.Errorf("%d shards: no keyed check was routed to one shard", shards)
		}
		if unbounded.WireTuples != 30 {
			t.Errorf("%d shards: the unbounded read shipped %d tuples, want all 30 of dept", shards, unbounded.WireTuples)
		}
	}
}

// TestRangeRefreshShipsTheRange: a check of an l insert reads the r points
// inside the interval, and the coordinator ships just those — none when
// the interval covers no point, the covered ones otherwise — over as many
// round trips as a scan of r takes, on r placed whole or in four shards.
// After a mixed stream, decided at four workers, the mirror still holds
// what the sites hold.
func TestRangeRefreshShipsTheRange(t *testing.T) {
	// r holds 15, 35 and 60.
	for _, c := range []struct {
		l      relation.Tuple
		tuples int64
		admit  bool
	}{
		{relation.Ints(70, 75), 0, true},
		{relation.Ints(36, 59), 0, true},
		{relation.Ints(55, 65), 1, false},
		{relation.Ints(10, 40), 2, false},
		{relation.Ints(60, 60), 1, false},
	} {
		for _, shards := range []int{1, 4} {
			co, _, _ := buildShardedArm(t, shardArm{shards: shards})
			before := co.Stats()
			rep, err := co.Check(store.Ins("l", c.l))
			if err != nil || rep.Applied != c.admit {
				t.Fatalf("%d shards, +l%v: err=%v applied=%v, want %v", shards, c.l, err, rep.Applied, c.admit)
			}
			st := co.Stats()
			trips, tuples := st.RoundTrips-before.RoundTrips, st.WireTuples-before.WireTuples
			// A scan of r asks each shard once; so does a range, but a point
			// on the shard key asks its owner alone.
			want := shards
			if c.l[0].Equal(c.l[1]) {
				want = 1
			}
			if tuples != c.tuples || trips != want {
				t.Errorf("%d shards, +l%v: %d round trips shipping %d tuples, want %d shipping %d",
					shards, c.l, trips, tuples, want, c.tuples)
			}
		}
	}

	for _, shards := range []int{1, 4} {
		co, _, leaders := buildShardedArm(t, shardArm{shards: shards, batchWorkers: 4})
		for i, r := range applyStream(co, shardStream(11, 240), 4) {
			if r.Err != nil {
				t.Fatalf("%d shards, update %d: %v", shards, i, r.Err)
			}
		}
		merged, mirror := store.New(), store.New()
		for _, db := range leaders {
			for _, rel := range []string{"dept", "r"} {
				for _, tu := range db.Tuples(rel) {
					if _, err := merged.Insert(rel, tu); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for _, rel := range []string{"dept", "r"} {
			for _, tu := range co.Checker.DB().Tuples(rel) {
				if _, err := mirror.Insert(rel, tu); err != nil {
					t.Fatal(err)
				}
			}
		}
		if got, want := dumpStore(mirror), dumpStore(merged); got != want {
			t.Fatalf("%d shards: the mirror diverged from the sites\nmirror:\n%s\nsites:\n%s", shards, got, want)
		}
	}
}

// TestScatterWaitsOneRoundTrip: a read of every shard — a scan or a
// bounded fetch — asks them all at once above one apply worker, so it
// waits out one round trip, not one per shard; at one worker it asks
// them in turn.
func TestScatterWaitsOneRoundTrip(t *testing.T) {
	const latency = 50 * time.Millisecond
	for _, workers := range []int{1, 4} {
		co, lb, _ := buildShardedArm(t, shardArm{shards: 4, batchWorkers: workers})
		for i := 0; i < 4; i++ {
			lb.SetLatency(fmt.Sprintf("s%d", i), latency)
		}
		for _, read := range []mirrorRead{
			{rel: "r"},
			{rel: "r", rg: relation.Range{Col: 0, Lo: ast.Int(10), Hi: ast.Int(40), HasLo: true, HasHi: true}},
		} {
			start := time.Now()
			if err := co.refresh(read, new(fetchRoom)); err != nil {
				t.Fatal(err)
			}
			took := time.Since(start)
			if workers > 1 && took >= 2*latency {
				t.Errorf("workers %d: scatter read %+v took %v, want one round trip of %v", workers, read.rg, took, latency)
			}
			if workers <= 1 && took < 4*latency {
				t.Errorf("workers %d: scatter read %+v took %v, want four round trips in turn", workers, read.rg, took)
			}
		}
	}
}

// globalConstraints are decided by a global evaluation over edge, which
// is sharded and updated: recursion through the new edge, the new edge at
// two literals, and a delete that strands a node.
var globalConstraints = map[string]string{
	"acyclic":  "reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- reach(X,Z) & edge(Z,Y).\npanic :- reach(X,X).",
	"two-step": "hop(X,Z) :- edge(X,Y) & edge(Y,Z).\npanic :- hop(X,Z) & vip(X) & vip(Z).",
	"stranded": "linked(X) :- edge(X,Y).\nlone(X) :- node(X) & not linked(X).\npanic :- lone(X) & vip(X).",
}

// buildEdgeArm places edge in four shards keyed on its first column, keeps
// node and vip local, and adds the constraints to a coordinator over it
// and to a plain checker over one store holding everything.
func buildEdgeArm(t *testing.T, constraints map[string]string) (co *Coordinator, ref *core.Checker, lb *Loopback, leaders map[string]*store.Store) {
	t.Helper()
	const shards = 4
	rp := RelPlacement{KeyCol: 0}
	lb = NewLoopback()
	leaders = map[string]*store.Store{}
	for i := 0; i < shards; i++ {
		site := fmt.Sprintf("s%d", i)
		rp.Shards = append(rp.Shards, ShardSpec{Leader: site})
		leaders[site] = store.New()
		lb.AddSite(site, NewServer(leaders[site], []string{"edge"}))
	}
	place := Placement{"edge": rp}
	whole, local := store.New(), store.New()
	for rel, tuples := range map[string][]relation.Tuple{
		"edge": {relation.Ints(0, 1), relation.Ints(1, 2), relation.Ints(5, 6)},
		"node": {relation.Ints(0), relation.Ints(1), relation.Ints(5)},
		"vip":  {relation.Ints(2), relation.Ints(5)},
	} {
		for _, tp := range tuples {
			into := local
			if rel == "edge" {
				into = leaders[rp.Shards[place.ShardOf(rel, tp[0])].Leader]
			}
			for _, db := range []*store.Store{whole, into} {
				if _, err := db.Insert(rel, tp); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	co, err := NewPlaced(local, place, lb, Options{
		Checker: core.Options{LocalRelations: []string{"node", "vip"}}, Timeout: 50 * time.Millisecond, Retries: -1, Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ref = core.New(whole, core.Options{})
	for name, src := range constraints {
		for _, chk := range []*core.Checker{co.Checker, ref} {
			if err := chk.AddConstraintSource(name, src); err != nil {
				t.Fatal(err)
			}
		}
	}
	return co, ref, lb, leaders
}

// global reports whether a global evaluation decided some constraint.
func global(rep core.Report) bool {
	return slices.ContainsFunc(rep.Decisions, func(d core.Decision) bool { return d.Phase == core.PhaseGlobal })
}

// TestShardedGlobalAgreement: constraints the residual compiler refuses,
// over a relation that is both sharded and updated, are decided by a
// global evaluation over the mirror, which the coordinator refreshes with
// all of edge from every shard before the decision — the shards hold the
// state before the update, and the evaluation applies the update above
// what they answered. Every Check and Apply must agree with a plain
// checker over one store holding everything, and the merged shards must
// end up equal to it. Each global decision makes one scatter refresh of
// edge and no other read of it, and one at a time the stream costs no
// more round trips or tuples than it did when an evaluation's probes were
// each sent to the shards (3 055 and 5 696).
func TestShardedGlobalAgreement(t *testing.T) {
	for _, workers := range []int{1, 4} {
		co, ref, _, leaders := buildEdgeArm(t, globalConstraints)
		rng := rand.New(rand.NewSource(16))
		stream := make([]store.Update, 150)
		for i := range stream {
			tp := relation.Ints(int64(rng.Intn(7)), int64(rng.Intn(7)))
			switch op := rng.Intn(10); {
			case op < 6:
				stream[i] = store.Ins("edge", tp)
			case op < 9:
				stream[i] = store.Del("edge", tp)
			default:
				stream[i] = store.Ins("node", tp[:1])
			}
		}
		want := make([]bool, len(stream))
		globals := 0
		for i, u := range stream {
			chk, err := ref.Check(u)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := ref.Apply(u)
			if err != nil || rep.Applied != chk.Applied {
				t.Fatalf("reference: %v checked %v, applied %v (%v)", u, chk.Applied, rep.Applied, err)
			}
			want[i] = rep.Applied
			if workers == 1 {
				// The coordinator's own check, then its apply, one at a time.
				for _, decide := range []func(store.Update) (core.Report, error){co.Check, co.Apply} {
					got, err := decide(u)
					if err != nil || got.Applied != want[i] {
						t.Fatalf("update %d (%v): coordinator says applied=%v err=%v, one-store checker %v", i, u, got.Applied, err, want[i])
					}
					if global(got) {
						globals++
					}
				}
			}
		}
		if workers > 1 {
			for i, r := range applyStream(co, stream, workers) {
				if r.Err != nil || r.Report.Applied != want[i] {
					t.Fatalf("workers %d update %d (%v): applied=%v err=%v, one-store checker %v", workers, i, stream[i], r.Report.Applied, r.Err, want[i])
				}
				if global(r.Report) {
					globals++
				}
			}
		}
		if got, ref := dumpGlobal(co, leaders), dumpStore(ref.DB()); got != ref {
			t.Fatalf("workers %d: shards and coordinator hold\n%s\nthe one store\n%s", workers, got, ref)
		}
		st := co.Stats()
		if st.Rejected == 0 || globals == 0 {
			t.Fatalf("workers %d: thin run: %d global decisions, %+v", workers, globals, st)
		}
		if st.ShardScatter != globals || st.ShardRouted != 0 {
			t.Errorf("workers %d: %d global decisions made %d scatter and %d routed reads, want one scatter each and no other read",
				workers, globals, st.ShardScatter, st.ShardRouted)
		}
		if workers == 1 && (st.RoundTrips > 3055 || st.WireTuples > 5696) {
			t.Errorf("%d round trips and %d tuples, want no more than 3 055 and 5 696", st.RoundTrips, st.WireTuples)
		}
		// A refresh that finds edge as the mirror holds it moves no data
		// version, so the kept fixpoints outlive it: one at a time, the
		// stream rebuilds them for a few of its global decisions, not each.
		if rb := co.Checker.Stats().FixpointRebuilds; workers == 1 && 2*rb >= int64(globals) {
			t.Errorf("%d kept-fixpoint rebuilds over %d global decisions, want fewer than half", rb, globals)
		}
	}
}

// TestShardedSiteWritesAreSeen: a site owns its data, so writes reach its
// store from other clients than the coordinator, and they preserve the
// constraints. Every read a decision makes asks the site, so the
// coordinator sees them. Between decisions dept(20) is deleted and r(5)
// inserted straight into the owning site's store; then six identical
// checks of +emp(3000, 20) and of +l(0, 10), in turn and at once, are all
// rejected, with dept and r placed whole and in four shards.
func TestShardedSiteWritesAreSeen(t *testing.T) {
	for _, shards := range []int{1, 4} {
		co, _, sites := buildShardedArm(t, shardArm{shards: shards})
		owner := func(rel string, key int64) *store.Store {
			return sites[co.place[rel].Shards[co.place.ShardOf(rel, ast.Int(key))].Leader]
		}
		// l(0, 10) goes first, so that r(5) breaks no constraint.
		if rep, err := co.Apply(store.Del("l", relation.Ints(0, 10))); err != nil || !rep.Applied {
			t.Fatalf("%d shards: -l(0,10): %+v %v", shards, rep, err)
		}
		checks := []store.Update{store.Ins("emp", relation.Ints(3000, 20)), store.Ins("l", relation.Ints(0, 10))}
		for _, u := range checks {
			if rep, err := co.Check(u); err != nil || !rep.Applied {
				t.Fatalf("%d shards: %v before the site writes: applied=%v err=%v", shards, u, rep.Applied, err)
			}
		}
		if !owner("dept", 20).Delete("dept", relation.Ints(20)) {
			t.Fatalf("%d shards: dept(20) is not on its owning site", shards)
		}
		if _, err := owner("r", 5).Insert("r", relation.Ints(5)); err != nil {
			t.Fatal(err)
		}
		for _, u := range checks {
			for i := 0; i < 6; i++ {
				if rep, err := co.Check(u); err != nil || rep.Applied {
					t.Errorf("%d shards: check %d of %v after the site writes: applied=%v err=%v", shards, i, u, rep.Applied, err)
				}
			}
			var wg sync.WaitGroup
			for i := 0; i < 6; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if rep, err := co.Check(u); err != nil || rep.Applied {
						t.Errorf("%d shards: concurrent check of %v after the site writes: applied=%v err=%v", shards, u, rep.Applied, err)
					}
				}()
			}
			wg.Wait()
		}
	}
}

// TestShardedGlobalBatchReadsOnce: a batch whose members all need the
// global evaluation over edge refreshes edge once, before the first
// member is decided, and agrees with the one-store checker.
func TestShardedGlobalBatchReadsOnce(t *testing.T) {
	co, ref, _, leaders := buildEdgeArm(t, globalConstraints)
	batch := []store.Update{
		store.Ins("edge", relation.Ints(2, 3)), store.Ins("edge", relation.Ints(3, 4)),
		store.Del("edge", relation.Ints(0, 1)), store.Ins("node", relation.Ints(3)),
	}
	before := co.Stats()
	br, err := co.ApplyBatch(batch)
	if err != nil || !br.Applied {
		t.Fatalf("batch: %+v %v", br, err)
	}
	for i, rep := range br.Reports {
		if !global(rep) {
			t.Fatalf("member %d (%v) needed no global evaluation: %+v", i, batch[i], rep)
		}
	}
	if want, err := ref.ApplyBatch(batch); err != nil || !want.Applied {
		t.Fatalf("reference batch: %+v %v", want, err)
	}
	st := co.Stats()
	if n, r := st.ShardScatter-before.ShardScatter, st.ShardRouted-before.ShardRouted; n != 1 || r != 0 {
		t.Errorf("a batch of %d global members made %d scatter and %d routed reads, want one scatter", len(batch), n, r)
	}
	if got, want := dumpGlobal(co, leaders), dumpStore(ref.DB()); got != want {
		t.Fatalf("shards and coordinator hold\n%s\nthe one store\n%s", got, want)
	}
	// A cycle closed by the last member rejects the batch, and nothing of it
	// lands anywhere.
	before, held := co.Stats(), dumpGlobal(co, leaders)
	br, err = co.ApplyBatch([]store.Update{store.Ins("edge", relation.Ints(6, 0)), store.Ins("edge", relation.Ints(4, 1))})
	if err != nil || br.Applied || br.FailedAt != 1 {
		t.Fatalf("cycle-closing batch: %+v %v", br, err)
	}
	if st := co.Stats(); st.ShardScatter-before.ShardScatter != 1 || dumpGlobal(co, leaders) != held {
		t.Errorf("rejected batch: %d scatter reads, state moved: %v", st.ShardScatter-before.ShardScatter, dumpGlobal(co, leaders) != held)
	}
}

// TestShardedGlobalPartition: with one shard of edge partitioned away, an
// insert the acyclic evaluation must decide reaches no verdict — it is
// refused with ErrSiteUnavailable, no decisions, and mirror and shards as
// they were — while an update that reads no edge still commits.
func TestShardedGlobalPartition(t *testing.T) {
	co, _, lb, leaders := buildEdgeArm(t, map[string]string{
		"acyclic":    globalConstraints["acyclic"],
		"small-vips": "panic :- vip(X) & X > 100.",
	})
	lb.Partition("s1")
	mirror, held := dumpStore(co.Checker.DB()), dumpGlobal(co, leaders)
	for _, decide := range []func(store.Update) (core.Report, error){co.Check, co.Apply} {
		rep, err := decide(store.Ins("edge", relation.Ints(2, 0)))
		if !errors.Is(err, ErrSiteUnavailable) || rep.Applied || len(rep.Decisions) != 0 {
			t.Fatalf("+edge(2,0) with a shard partitioned: rep=%+v err=%v", rep, err)
		}
	}
	if dumpStore(co.Checker.DB()) != mirror || dumpGlobal(co, leaders) != held {
		t.Fatal("a refused update moved the mirror or the shards")
	}
	if rep, err := co.Apply(store.Ins("vip", relation.Ints(9))); err != nil || !rep.Applied {
		t.Fatalf("+vip(9) reads no edge, yet: rep=%+v err=%v", rep, err)
	}
	if st := co.Stats(); st.Unavailable != 2 || st.DecidedLocally != 1 {
		t.Errorf("unavailable %d, decided locally %d; want 2 and 1", st.Unavailable, st.DecidedLocally)
	}
	lb.Heal("s1")
	if rep, err := co.Apply(store.Ins("edge", relation.Ints(2, 0))); err != nil || rep.Applied {
		t.Fatalf("+edge(2,0) closes 0→1→2→0 once healed: rep=%+v err=%v", rep, err)
	}
}
