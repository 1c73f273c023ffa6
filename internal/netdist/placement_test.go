package netdist

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
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

func TestParseReplicaSpec(t *testing.T) {
	rel, shard, site, err := ParseReplicaSpec("dept/1 = s9")
	if err != nil {
		t.Fatal(err)
	}
	if rel != "dept" || shard != 1 || site != "s9" {
		t.Fatalf("parsed %q %d %q", rel, shard, site)
	}
	for _, bad := range []string{"dept=s9", "dept/x=s9", "/1=s9", "dept/1=", "dept/-1=s9"} {
		if _, _, _, err := ParseReplicaSpec(bad); err == nil {
			t.Errorf("spec %q: want error", bad)
		}
	}
}

// FuzzPlacementSpecs feeds one text to the three placement flag parsers:
// none panics, and what each accepts makes a placement NewPlaced takes —
// a site spec on its own, a shard spec on its own, a replica spec on a
// four-shard relation whose leaders it cannot name (a parsed site never
// starts with a space).
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
		if rel, shard, site, err := ParseReplicaSpec(s); err == nil && shard < 4 {
			rp := RelPlacement{Shards: []ShardSpec{{Leader: " s0"}, {Leader: " s1"}, {Leader: " s2"}, {Leader: " s3"}}}
			rp.Shards[shard].Replicas = []string{site}
			if err := (Placement{rel: rp}).validate(); err != nil {
				t.Errorf("replica spec %q parsed to %s/%d=%q: %v", s, rel, shard, site, err)
			}
		}
	})
}

func TestPlacementValidate(t *testing.T) {
	lb := NewLoopback()
	for name, place := range map[string]Placement{
		"no shards":   {"dept": {KeyCol: 0}},
		"no key col":  {"dept": {KeyCol: -1, Shards: []ShardSpec{{Leader: "a"}, {Leader: "b"}}}},
		"dup site":    {"dept": {KeyCol: 0, Shards: []ShardSpec{{Leader: "a"}, {Leader: "a"}}}},
		"dup replica": {"dept": {KeyCol: 0, Shards: []ShardSpec{{Leader: "a", Replicas: []string{"b"}}, {Leader: "b"}}}},
		"no leader":   {"dept": {KeyCol: 0, Shards: []ShardSpec{{Replicas: []string{"b"}}}}},
	} {
		if _, err := NewPlaced(store.New(), place, lb, Options{}); err == nil {
			t.Errorf("%s: want NewPlaced to refuse", name)
		}
	}
}

// shardArm describes one deployment shape of the same logical database
// for the oracle test.
type shardArm struct {
	name     string
	shards   int  // dept and r shard count (1 = whole-relation single site)
	replicas bool // one read replica per shard
	// noLocalData sets the checker's DisableLocalData: no local
	// certificates, no phase 3. batchWorkers is Options.ApplyWorkers.
	noLocalData  bool
	batchWorkers int
}

// buildShardedArm deploys emp and l at the coordinator and dept and r
// across `shards` loopback sites, hash-partitioned by column 0 when
// shards > 1, seeding every store identically across arms. Returns the
// coordinator, the transport, and the per-site leader stores.
func buildShardedArm(t *testing.T, arm shardArm) (*Coordinator, *Loopback, map[string]*store.Store) {
	t.Helper()
	sites := make([]string, arm.shards)
	for i := range sites {
		sites[i] = fmt.Sprintf("s%d", i)
	}
	place := Placement{}
	for _, rel := range []string{"dept", "r"} {
		rp := RelPlacement{KeyCol: 0}
		for i, site := range sites {
			sh := ShardSpec{Leader: site}
			if arm.replicas {
				sh.Replicas = []string{fmt.Sprintf("%s-%s-replica", rel, sites[i])}
			}
			rp.Shards = append(rp.Shards, sh)
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
	for rel, rp := range place {
		for _, sh := range rp.Shards {
			for _, replica := range sh.Replicas {
				srv := NewServer(store.New(), []string{rel})
				srv.SetRole("replica")
				lb.AddSite(replica, srv)
			}
		}
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
// randomized stream against a 1-site whole-relation deployment, a
// 4-site hash-sharded one and a sharded one with read replicas, each
// applied by one worker and through the scheduler at 4 and 8, must produce
// identical verdicts, identical rejection indexes, an identical mirror,
// and an identical global store. The stream draws emp's dept keys and
// the dept keys it writes from one small band, so a dept(K) delete meets
// emp(_, K) inserts (which must keep admission order) and emp(_, K')
// inserts (which may overlap it) in every window; the reference is the
// whole-relation arm at one worker. A third stream (witnessStream) makes
// local certificates collide with the deletes of their witnesses.
func TestShardedOracleAgreement(t *testing.T) {
	arms := []shardArm{
		{name: "whole", shards: 1},
		{name: "sharded4", shards: 4},
		{name: "sharded4+replicas", shards: 4, replicas: true},
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
				co.FlushReplicas()
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
				if arm.replicas && st.ReplicaReads == 0 {
					t.Errorf("%s: no read was served by a replica", name)
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
			if err := co.refresh(read); err != nil {
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

// pickKeyOnShard returns an int key ≥ from that the placement hashes to
// the wanted shard of rel.
func pickKeyOnShard(t *testing.T, p Placement, rel string, shard int, from int64) int64 {
	t.Helper()
	for k := from; k < from+10000; k++ {
		if p.ShardOf(rel, ast.Int(k)) == shard {
			return k
		}
	}
	t.Fatalf("no key on shard %d of %s", shard, rel)
	return 0
}

// replicaFixture: dept hash-sharded across two leaders, shard 0 carrying
// one read replica.
func replicaFixture(t *testing.T) (*Coordinator, *Loopback, *store.Store, *store.Store) {
	t.Helper()
	place := Placement{"dept": {KeyCol: 0, Shards: []ShardSpec{
		{Leader: "s0", Replicas: []string{"s0-replica"}},
		{Leader: "s1"},
	}}}
	lb := NewLoopback()
	leader0 := store.New()
	lb.AddSite("s0", NewServer(leader0, []string{"dept"}))
	lb.AddSite("s1", NewServer(store.New(), []string{"dept"}))
	replicaDB := store.New()
	replicaSrv := NewServer(replicaDB, []string{"dept"})
	replicaSrv.SetRole("replica")
	lb.AddSite("s0-replica", replicaSrv)

	// Seed only shard 0 — the replicated shard is what these tests watch.
	for k := int64(0); k < 20; k++ {
		if place.ShardOf("dept", ast.Int(k)) != 0 {
			continue
		}
		if _, err := leader0.Insert("dept", relation.Ints(k)); err != nil {
			t.Fatal(err)
		}
	}

	local := store.New()
	co, err := NewPlaced(local, place, lb, Options{
		Checker: core.Options{LocalRelations: []string{"emp"}},
		Timeout: time.Second,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Checker.AddConstraintSource("ref", "panic :- emp(E, D) & not dept(D)."); err != nil {
		t.Fatal(err)
	}
	return co, lb, leader0, replicaDB
}

// TestReplicaSeedAndCatchup: NewPlaced seeds the replica synchronously,
// propagated writes stream to it asynchronously, and once caught up the
// replica serves shard reads.
func TestReplicaSeedAndCatchup(t *testing.T) {
	co, lb, leader0, replicaDB := replicaFixture(t)
	if got, want := dumpStore(replicaDB), dumpStore(leader0); got != want {
		t.Fatalf("replica not seeded at construction\nreplica:\n%s\nleader:\n%s", got, want)
	}

	key := pickKeyOnShard(t, co.place, "dept", 0, 100)
	if rep, err := co.Apply(store.Ins("dept", relation.Ints(key))); err != nil || !rep.Applied {
		t.Fatalf("insert: err=%v applied=%v", err, rep.Applied)
	}
	co.FlushReplicas()
	if !replicaDB.Contains("dept", relation.Ints(key)) {
		t.Fatal("propagated write did not reach the replica")
	}
	if got, want := dumpStore(replicaDB), dumpStore(leader0); got != want {
		t.Fatalf("replica diverged from leader\nreplica:\n%s\nleader:\n%s", got, want)
	}

	// A fresh replica takes shard reads: scan the relation a few times and
	// the round-robin must land on the replica.
	before := lb.Stats().Delivered["s0-replica"]
	for i := 0; i < 4; i++ {
		if err := co.refresh(mirrorRead{rel: "dept"}); err != nil {
			t.Fatal(err)
		}
	}
	if lb.Stats().Delivered["s0-replica"] <= before {
		t.Fatal("no shard read reached the fresh replica")
	}
	if co.Stats().ReplicaReads == 0 {
		t.Fatal("ReplicaReads not accounted")
	}
}

// TestReplicaFailureStaleThenResync: a replica that misses a write goes
// stale (and stops serving reads); the next write queues a full resync
// that rebuilds it from the leader and restores freshness.
func TestReplicaFailureStaleThenResync(t *testing.T) {
	co, lb, leader0, replicaDB := replicaFixture(t)

	lb.Partition("s0-replica")
	k1 := pickKeyOnShard(t, co.place, "dept", 0, 200)
	if rep, err := co.Apply(store.Ins("dept", relation.Ints(k1))); err != nil || !rep.Applied {
		t.Fatalf("insert during partition: err=%v applied=%v", err, rep.Applied)
	}
	co.FlushReplicas()
	if replicaDB.Contains("dept", relation.Ints(k1)) {
		t.Fatal("partitioned replica received the write")
	}
	// Stale: shard reads all fall back to the leader.
	base := co.Stats().ReplicaReads
	for i := 0; i < 4; i++ {
		if err := co.refresh(mirrorRead{rel: "dept"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := co.Stats().ReplicaReads; got != base {
		t.Fatalf("stale replica served %d reads", got-base)
	}

	lb.Heal("s0-replica")
	k2 := pickKeyOnShard(t, co.place, "dept", 0, 300)
	if rep, err := co.Apply(store.Ins("dept", relation.Ints(k2))); err != nil || !rep.Applied {
		t.Fatalf("insert after heal: err=%v applied=%v", err, rep.Applied)
	}
	co.FlushReplicas()
	if got, want := dumpStore(replicaDB), dumpStore(leader0); got != want {
		t.Fatalf("resync did not converge replica to leader\nreplica:\n%s\nleader:\n%s", got, want)
	}
	st := co.Stats()
	if st.ReplicaResyncs == 0 {
		t.Fatal("no resync accounted")
	}
	// Fresh again: reads reach the replica once more.
	before := lb.Stats().Delivered["s0-replica"]
	for i := 0; i < 4; i++ {
		if err := co.refresh(mirrorRead{rel: "dept"}); err != nil {
			t.Fatal(err)
		}
	}
	if lb.Stats().Delivered["s0-replica"] <= before {
		t.Fatal("recovered replica serves no reads")
	}
}

// TestReplaceRequiresReplicaRole: a leader-role site refuses the bulk
// OpReplace that replica resync uses.
func TestReplaceRequiresReplicaRole(t *testing.T) {
	srv := NewServer(store.New(), []string{"dept"})
	resp := srv.Handle(&Request{ID: 1, Type: OpReplace, Relation: "dept", Arity: 1, Tuples: [][]string{{EncodeValue(ast.Int(1))}}})
	if resp.OK {
		t.Fatal("leader accepted OpReplace")
	}
	srv.SetRole("replica")
	resp = srv.Handle(&Request{ID: 2, Type: OpReplace, Relation: "dept", Arity: 1, Tuples: [][]string{{EncodeValue(ast.Int(1))}}})
	if !resp.OK {
		t.Fatalf("replica refused OpReplace: %s", resp.Err)
	}
}

// TestRoutedSelfRelationAgreement: constraints the residual compiler
// refuses, over a relation that is both sharded and updated, are decided
// by a global evaluation whose reads of that relation go to the shards —
// which hold the state before the update — with the update applied above
// what they answer: recursion through the new edge, the new edge at two
// literals, and a delete that strands a node. Every Check and Apply must
// agree with a plain checker over one store holding everything, the
// merged shards must end up equal to it, and the probes must have been
// routed.
func TestRoutedSelfRelationAgreement(t *testing.T) {
	constraints := map[string]string{
		"acyclic":  "reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- reach(X,Z) & edge(Z,Y).\npanic :- reach(X,X).",
		"two-step": "hop(X,Z) :- edge(X,Y) & edge(Y,Z).\npanic :- hop(X,Z) & vip(X) & vip(Z).",
		"stranded": "linked(X) :- edge(X,Y).\nlone(X) :- node(X) & not linked(X).\npanic :- lone(X) & vip(X).",
	}
	for _, workers := range []int{1, 4} {
		const shards = 4
		rp := RelPlacement{KeyCol: 0}
		lb := NewLoopback()
		leaders := map[string]*store.Store{}
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
			Checker: core.Options{LocalRelations: []string{"node", "vip"}}, Timeout: time.Second, Backoff: time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		ref := core.New(whole, core.Options{})
		for name, src := range constraints {
			for _, chk := range []*core.Checker{co.Checker, ref} {
				if err := chk.AddConstraintSource(name, src); err != nil {
					t.Fatal(err)
				}
			}
		}
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
				}
			}
		}
		if workers > 1 {
			for i, r := range applyStream(co, stream, workers) {
				if r.Err != nil || r.Report.Applied != want[i] {
					t.Fatalf("workers %d update %d (%v): applied=%v err=%v, one-store checker %v", workers, i, stream[i], r.Report.Applied, r.Err, want[i])
				}
			}
		}
		if got, ref := dumpGlobal(co, leaders), dumpStore(whole); got != ref {
			t.Fatalf("workers %d: shards and coordinator hold\n%s\nthe one store\n%s", workers, got, ref)
		}
		if st := co.Stats(); st.ShardRouted == 0 || st.Rejected == 0 {
			t.Fatalf("workers %d: thin run: %+v", workers, st)
		}
	}
}
