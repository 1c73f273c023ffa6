package netdist

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/store"
)

// attempts sums the requests the transport was asked to carry, delivered
// or not.
func attempts(lb *Loopback) int64 {
	var n int64
	for _, a := range lb.Stats().Attempts {
		n += a
	}
	return n
}

// TestCertifiedInsertSurvivesPartition is the sentence on Apply —
// "updates decidable from local information commit regardless of site
// health" — for a decision that depends on the data: with every dept
// shard unreachable, an emp insert into a department that already has an
// employee commits without a frame being sent, and the same insert into a
// department nobody is in is refused with ErrSiteUnavailable and writes
// nothing.
func TestCertifiedInsertSurvivesPartition(t *testing.T) {
	co, lb, _ := buildShardedArm(t, shardArm{name: "sharded4", shards: 4})
	for i := 0; i < 4; i++ {
		lb.Partition(fmt.Sprintf("s%d", i))
	}
	sent, before := attempts(lb), co.Stats()

	// emp(1003, 3) is seeded: department 3 has a witness.
	for _, decide := range []func(store.Update) (core.Report, error){co.Check, co.Apply} {
		rep, err := decide(store.Ins("emp", relation.Ints(2000, 3)))
		if err != nil || !rep.Applied {
			t.Fatalf("certified insert under partition: rep=%+v err=%v", rep, err)
		}
		if w := rep.Witness("ref"); !w.Equal(relation.Ints(1003, 3)) {
			t.Errorf("witnesses = %v, want ref certified by emp(1003,3)", rep.Witnesses)
		}
	}
	if !co.Checker.DB().Contains("emp", relation.Ints(2000, 3)) {
		t.Error("the applied insert is not in the mirror")
	}
	st := co.Stats()
	if got := attempts(lb) - sent; got != 0 || st.RoundTrips != before.RoundTrips {
		t.Errorf("certified decisions sent %d frames, %d round trips", got, st.RoundTrips-before.RoundTrips)
	}
	if st.DecidedLocally-before.DecidedLocally != 2 || st.Unavailable != 0 {
		t.Errorf("decided locally %d, unavailable %d; want 2 and 0", st.DecidedLocally-before.DecidedLocally, st.Unavailable)
	}

	// Department 20 exists at its shard, and nobody works there.
	for _, decide := range []func(store.Update) (core.Report, error){co.Check, co.Apply} {
		rep, err := decide(store.Ins("emp", relation.Ints(2001, 20)))
		if !errors.Is(err, ErrSiteUnavailable) || rep.Applied || len(rep.Decisions) != 0 {
			t.Fatalf("uncertified insert under partition: rep=%+v err=%v", rep, err)
		}
	}
	if co.Checker.DB().Contains("emp", relation.Ints(2001, 20)) {
		t.Error("a refused insert wrote the mirror")
	}
	if st := co.Stats(); st.Unavailable != 2 || st.DecidedLocally-before.DecidedLocally != 2 {
		t.Errorf("unavailable %d, decided locally %d; want 2 and 2", st.Unavailable, st.DecidedLocally-before.DecidedLocally)
	}
}

// TestDisableLocalDataIsTheParentArm: DisableLocalData compiles no
// certificate and keeps no cover, and the coordinator then sends what it
// sent before either existed — the round trips and tuples below were
// counted under the same switch, with every read shipping the range its
// check probes and no relation refreshed that no check reads — while the
// default arm reaches the same verdicts over fewer of both.
func TestDisableLocalDataIsTheParentArm(t *testing.T) {
	for _, c := range []struct {
		arm                   shardArm
		seed                  int64
		trips, applied, local int
		tuples                int64
	}{
		{shardArm{name: "whole", shards: 1, noLocalData: true}, 7, 127, 177, 60, 63},
		{shardArm{name: "whole", shards: 1, noLocalData: true}, 23, 120, 185, 60, 67},
		{shardArm{name: "sharded4", shards: 4, noLocalData: true}, 7, 246, 177, 60, 76},
		{shardArm{name: "sharded4", shards: 4, noLocalData: true}, 23, 257, 185, 60, 80},
	} {
		run := func(arm shardArm) (Stats, int, int64) {
			co, _, _ := buildShardedArm(t, arm)
			applied := 0
			for i, r := range applyStream(co, shardStream(c.seed, 240), 1) {
				if r.Err != nil {
					t.Fatalf("%s seed %d update %d: %v", arm.name, c.seed, i, r.Err)
				}
				if r.Report.Applied {
					applied++
				}
			}
			return co.Stats(), applied, co.Checker.Stats().LocalCertified
		}
		st, applied, certified := run(c.arm)
		if st.RoundTrips != c.trips || st.WireTuples != c.tuples || st.DecidedLocally != c.local || applied != c.applied || certified != 0 {
			t.Errorf("%s seed %d without local data: %d trips, %d tuples, %d decided locally, %d applied, %d certified; the parent: %d, %d, %d, %d, 0",
				c.arm.name, c.seed, st.RoundTrips, st.WireTuples, st.DecidedLocally, applied, certified, c.trips, c.tuples, c.local, c.applied)
		}
		arm := c.arm
		arm.noLocalData = false
		st, applied, certified = run(arm)
		if applied != c.applied || certified == 0 || st.RoundTrips >= c.trips || st.WireTuples >= c.tuples || st.DecidedLocally <= c.local {
			t.Errorf("%s seed %d with local data: %d trips, %d tuples, %d decided locally, %d applied, %d certified",
				arm.name, c.seed, st.RoundTrips, st.WireTuples, st.DecidedLocally, applied, certified)
		}
	}
}

// TestKeyFetchesAreRoutedReads: an update that probes two key groups
// fetches two keys and counts two routed reads — KeyFetches is the
// keyed-refresh subset of ShardRouted — and when the second group's shard
// is down, the first fetch still counts as both.
func TestKeyFetchesAreRoutedReads(t *testing.T) {
	build := func() (*Coordinator, *Loopback, Placement) {
		co, lb, _ := buildShardedArm(t, shardArm{name: "sharded4", shards: 4})
		if err := co.Checker.AddConstraintSource("move", "panic :- move(E, A, B) & not dept(A) & not dept(B)."); err != nil {
			t.Fatal(err)
		}
		return co, lb, co.place
	}
	co, _, place := build()
	// Two departments on different shards.
	a, b := int64(0), int64(1)
	for place.ShardOf("dept", relation.Ints(b)[0]) == place.ShardOf("dept", relation.Ints(a)[0]) {
		b++
	}
	move := store.Ins("move", relation.Ints(1, a, b))
	before := co.Stats() // admitting the constraint probed the shards already
	if rep, err := co.Check(move); err != nil || !rep.Applied {
		t.Fatalf("rep=%+v err=%v", rep, err)
	}
	if st := co.Stats(); st.KeyFetches-before.KeyFetches != 2 || st.ShardRouted-before.ShardRouted != 2 {
		t.Errorf("two key groups: %d key fetches, %d routed reads; want 2 and 2",
			st.KeyFetches-before.KeyFetches, st.ShardRouted-before.ShardRouted)
	}

	co, lb, place := build()
	lb.Partition(fmt.Sprintf("s%d", place.ShardOf("dept", relation.Ints(b)[0])))
	before = co.Stats()
	if _, err := co.Check(move); !errors.Is(err, ErrSiteUnavailable) {
		t.Fatalf("second shard down: err=%v", err)
	}
	if st := co.Stats(); st.KeyFetches-before.KeyFetches != 1 || st.ShardRouted-before.ShardRouted != 1 {
		t.Errorf("second shard down: %d key fetches, %d routed reads; want 1 and 1",
			st.KeyFetches-before.KeyFetches, st.ShardRouted-before.ShardRouted)
	}
}

// TestBatchWitnessFromEarlierMember: an atomic batch whose first member is
// the witness of its third and whose last member names a department
// nobody has. At 1, 4 and 8 workers the third member is certified by the
// first — a member is planned and decided with the members before it
// pending — so the reports, witnesses included, are the same; the batch
// fails at the same index, mirror and sites come out as they went in,
// and the witness that was never written certifies nothing afterwards:
// the next insert into its department asks the shard.
func TestBatchWitnessFromEarlierMember(t *testing.T) {
	batch := []store.Update{
		store.Ins("emp", relation.Ints(2000, 20)), // nobody in 20 yet: fetched
		store.Ins("emp", relation.Ints(2001, 3)),  // certified by the seeded emp(1003,3)
		store.Ins("emp", relation.Ints(2002, 20)), // certified by the first member
		store.Ins("emp", relation.Ints(2003, 77)), // no such department
	}
	var want string
	for _, workers := range []int{1, 4, 8} {
		co, _, leaders := buildShardedArm(t, shardArm{name: "sharded4", shards: 4, batchWorkers: workers})
		mirror, global := dumpStore(co.Checker.DB()), dumpGlobal(co, leaders)
		br, err := co.ApplyBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("applied=%v failedAt=%d", br.Applied, br.FailedAt)
		for _, rep := range br.Reports {
			got += fmt.Sprintf(" %v:%v%v%v", rep.Update, rep.Applied, rep.Violations(), rep.Witnesses)
		}
		if br.Applied || br.FailedAt != 3 {
			t.Fatalf("workers %d: %s, want a rejection at 3", workers, got)
		}
		if w := br.Reports[2].Witness("ref"); !w.Equal(relation.Ints(2000, 20)) {
			t.Fatalf("workers %d: the third member's witness is %v, want the first member emp(2000,20)", workers, w)
		}
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("workers %d: %s\none worker: %s", workers, got, want)
		}
		if m, g := dumpStore(co.Checker.DB()), dumpGlobal(co, leaders); m != mirror || g != global {
			t.Fatalf("workers %d: the rejected batch left\n%s\n%s\nfor\n%s\n%s", workers, m, g, mirror, global)
		}
		trips := co.Stats().RoundTrips
		rep, err := co.Apply(store.Ins("emp", relation.Ints(2004, 20)))
		if err != nil || !rep.Applied || rep.Witnesses != nil || co.Stats().RoundTrips != trips+1 {
			t.Fatalf("workers %d: after the batch emp(2004,20): rep=%+v err=%v, %d round trips", workers, rep, err, co.Stats().RoundTrips-trips)
		}
	}
}

// TestCertificateRace hammers one department from many goroutines (run
// with -race): checks and inserts that a stored employee certifies, beside
// deletes of other employees of the same department — which no footprint
// keeps apart, and need not: whichever witness a plan finds, the decision
// that follows keeps it. Every verdict is an admission and nothing goes
// over the wire.
func TestCertificateRace(t *testing.T) {
	co, _, _ := buildShardedArm(t, shardArm{name: "sharded4", shards: 4})
	trips := co.Stats().RoundTrips
	const workers, per = 8, 50
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				tup := relation.Ints(int64(3000+w*per+i), 3)
				for _, step := range []func() (core.Report, error){
					func() (core.Report, error) { return co.Check(store.Ins("emp", tup)) },
					func() (core.Report, error) { return co.Apply(store.Ins("emp", tup)) },
					func() (core.Report, error) { return co.Apply(store.Del("emp", tup)) },
				} {
					if rep, err := step(); err != nil || !rep.Applied {
						errs <- fmt.Errorf("worker %d round %d: rep=%+v err=%v", w, i, rep, err)
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	deadline := time.After(30 * time.Second)
	for w := 0; w < workers; w++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Error(err)
			}
		case <-deadline:
			t.Fatal("workers did not finish")
		}
	}
	if got := co.Stats().RoundTrips - trips; got != 0 {
		t.Errorf("%d round trips; emp(1003,3) certifies every insert", got)
	}
	if got, want := co.Checker.Stats().LocalCertified, int64(2*workers*per); got != want {
		t.Errorf("%d certified decisions, want %d", got, want)
	}
}
