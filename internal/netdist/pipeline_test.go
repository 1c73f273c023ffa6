package netdist

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/sched"
	"repro/internal/store"
)

// pipeFixture builds a two-store deployment of the D1 constraint: l
// lives at the coordinator, r behind a loopback site. Returns the
// coordinator, the site's own store (to verify propagation and
// rollback reach it) and the loopback for latency injection.
func pipeFixture(t *testing.T, applyWorkers int) (*Coordinator, *store.Store, *Loopback) {
	t.Helper()
	remote := store.New()
	for _, p := range []int64{15, 35, 60} {
		if _, err := remote.Insert("r", relation.Ints(p)); err != nil {
			t.Fatal(err)
		}
	}
	lb := NewLoopback()
	lb.AddSite("siteR", NewServer(remote, []string{"r"}))
	local := store.New()
	for _, iv := range [][2]int64{{0, 10}, {20, 30}, {40, 50}} {
		if _, err := local.Insert("l", relation.Ints(iv[0], iv[1])); err != nil {
			t.Fatal(err)
		}
	}
	co, err := New(local, []SiteSpec{{Site: "siteR", Relations: []string{"r"}}}, lb, Options{
		Checker:      core.Options{LocalRelations: []string{"l"}},
		Timeout:      time.Second,
		Backoff:      time.Millisecond,
		ApplyWorkers: applyWorkers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Checker.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
		t.Fatal(err)
	}
	return co, remote, lb
}

// dumpStore renders a store deterministically for cross-arm comparison.
func dumpStore(db *store.Store) string {
	var b strings.Builder
	for _, name := range db.Names() {
		var tuples []string
		for _, tp := range db.Tuples(name) {
			tuples = append(tuples, tp.String())
		}
		sort.Strings(tuples)
		fmt.Fprintf(&b, "%s: %s\n", name, strings.Join(tuples, " "))
	}
	return b.String()
}

// streamResult pairs one streamed update's report and error.
type streamResult struct {
	Report core.Report
	Err    error
}

// applyStream applies each update on its own, with no batch atomicity:
// in a plain loop at workers <= 1, otherwise submitted to the scheduler
// in admission order, as a pipelined serve.Server drives a coordinator.
func applyStream(co *Coordinator, us []store.Update, workers int) []streamResult {
	out := make([]streamResult, len(us))
	if workers <= 1 {
		for i, u := range us {
			out[i].Report, out[i].Err = co.Apply(u)
		}
		return out
	}
	s, ix := sched.New(sched.Options{Workers: workers}), co.Checker.Footprints()
	for i, u := range us {
		i, u := i, u
		s.Submit(ix.Update(u), func(sched.Info) { out[i].Report, out[i].Err = co.Apply(u) })
	}
	s.Close()
	return out
}

// pipeStream mixes l and r traffic over a small band so conflicting
// pairs (same tuple twice, l vs r) are common.
func pipeStream(seed int64, n int) []store.Update {
	rng := rand.New(rand.NewSource(seed))
	us := make([]store.Update, n)
	for i := range us {
		if rng.Intn(3) > 0 {
			lo := int64(rng.Intn(80))
			u := store.Ins("l", relation.Ints(lo, lo+int64(rng.Intn(10))))
			if rng.Intn(3) == 0 {
				u = store.Del("l", u.Tuple)
			}
			us[i] = u
		} else {
			u := store.Ins("r", relation.Ints(int64(rng.Intn(100))))
			if rng.Intn(3) == 0 {
				u = store.Del("r", u.Tuple)
			}
			us[i] = u
		}
	}
	return us
}

// TestPipelinedStreamAgreement is the coordinator half of the randomized
// agreement test: the same stream through applyStream at workers 1
// (sequential loop), 4 and 8 must produce identical per-update verdicts,
// an identical mirror and an identical site store.
func TestPipelinedStreamAgreement(t *testing.T) {
	const n = 200
	for _, seed := range []int64{3, 11} {
		stream := pipeStream(seed, n)
		var wantVerdicts []bool
		var wantMirror, wantSite string
		for _, workers := range []int{1, 4, 8} {
			co, remote, _ := pipeFixture(t, 1)
			results := applyStream(co, stream, workers)
			vs := make([]bool, len(results))
			for i, r := range results {
				if r.Err != nil {
					t.Fatalf("seed %d workers %d update %d: %v", seed, workers, i, r.Err)
				}
				vs[i] = r.Report.Applied
			}
			mir, site := dumpStore(co.Checker.DB()), dumpStore(remote)
			if workers == 1 {
				wantVerdicts, wantMirror, wantSite = vs, mir, site
				continue
			}
			for i := range vs {
				if vs[i] != wantVerdicts[i] {
					t.Fatalf("seed %d workers %d: verdict diverged at update %d (%v): got applied=%v, sequential=%v",
						seed, workers, i, stream[i], vs[i], wantVerdicts[i])
				}
			}
			if mir != wantMirror {
				t.Fatalf("seed %d workers %d: mirror diverged\npipelined:\n%s\nsequential:\n%s", seed, workers, mir, wantMirror)
			}
			if site != wantSite {
				t.Fatalf("seed %d workers %d: site store diverged\npipelined:\n%s\nsequential:\n%s", seed, workers, site, wantSite)
			}
		}
	}
}

// TestPipelinedStreamOverlapsLatency pins the point of the pipelined arm:
// with wire latency on the site, independent updates overlap their RPCs
// — 8 workers must finish a refresh-heavy stream well faster than the
// sequential loop that waits out each round trip in turn.
func TestPipelinedStreamOverlapsLatency(t *testing.T) {
	mkStream := func() []store.Update {
		us := make([]store.Update, 24)
		for i := range us {
			lo := int64(1000 + 10*i)
			us[i] = store.Ins("l", relation.Ints(lo, lo+1)) // each needs one r refresh
		}
		return us
	}
	run := func(workers int) time.Duration {
		co, _, lb := pipeFixture(t, 1)
		lb.SetLatency("siteR", 2*time.Millisecond)
		start := time.Now()
		for i, r := range applyStream(co, mkStream(), workers) {
			if r.Err != nil || !r.Report.Applied {
				t.Fatalf("update %d: err=%v applied=%v", i, r.Err, r.Report.Applied)
			}
		}
		return time.Since(start)
	}
	seq, pipe := run(1), run(8)
	if pipe >= seq {
		t.Errorf("pipelined arm (%v) not faster than sequential (%v) under 2ms site latency", pipe, seq)
	}
}

// oneByOne is the reference an atomic batch is held to: Apply each member
// in turn on a fixture of its own until the first rejection, which is
// where the batch fails (-1: nowhere) and whose reports it returns.
func oneByOne(t *testing.T, co *Coordinator, batch []store.Update) (failedAt int, reports []string) {
	t.Helper()
	for i, u := range batch {
		rep, err := co.Apply(u)
		if err != nil {
			t.Fatalf("reference: update %d (%v): %v", i, u, err)
		}
		if reports = append(reports, renderReport(rep)); !rep.Applied {
			return i, reports
		}
	}
	return -1, reports
}

// sameBatch fails unless the batch report is the reference's: rejected at
// failedAt with its reports.
func sameBatch(t *testing.T, name string, br core.BatchReport, failedAt int, reports []string) {
	t.Helper()
	if br.Applied || br.FailedAt != failedAt || len(br.Reports) != len(reports) {
		t.Fatalf("%s: applied=%v failedAt=%d with %d reports, want a rejection at %d with %d",
			name, br.Applied, br.FailedAt, len(br.Reports), failedAt, len(reports))
	}
	for i, rep := range br.Reports {
		if renderReport(rep) != reports[i] {
			t.Fatalf("%s: report %d diverged\nbatch:     %s\none by one: %s", name, i, renderReport(rep), reports[i])
		}
	}
}

// TestPipelinedBatchAtomicRollback: a rejection mid-batch leaves the
// mirror AND the remote site as they were, and reports the failure index
// and reports of applying the members one by one, at any number of
// workers. Nothing is written anywhere before the verdict: the batch's
// wire traffic is its members' reads — one bounded fetch of r for each l
// insert, of the range it probes — and no write.
func TestPipelinedBatchAtomicRollback(t *testing.T) {
	batch := []store.Update{
		store.Ins("l", relation.Ints(100, 101)), // admissible
		store.Ins("r", relation.Ints(200)),      // admissible, propagates to siteR
		store.Ins("l", relation.Ints(55, 65)),   // covers r=60: rejected
		store.Ins("r", relation.Ints(400)),      // past the failure
	}
	refCo, _, _ := pipeFixture(t, 1)
	failedAt, reports := oneByOne(t, refCo, batch)
	if failedAt != 2 {
		t.Fatalf("reference fails at %d, want 2", failedAt)
	}
	for _, workers := range []int{0, 1, 8} {
		name := fmt.Sprintf("workers %d", workers)
		co, remote, _ := pipeFixture(t, workers)
		preMirror, preSite := dumpStore(co.Checker.DB()), dumpStore(remote)
		br, err := co.ApplyBatch(batch)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		sameBatch(t, name, br, failedAt, reports)
		if got := dumpStore(co.Checker.DB()); got != preMirror {
			t.Fatalf("%s: the rejected batch wrote the mirror\nafter:\n%s\nbefore:\n%s", name, got, preMirror)
		}
		if got := dumpStore(remote); got != preSite {
			t.Fatalf("%s: the rejected batch wrote the site (r(200))\nafter:\n%s\nbefore:\n%s", name, got, preSite)
		}
		if st := co.Stats(); st.RoundTrips != 2 || st.WireTuples != 1 {
			t.Fatalf("%s: %d round trips shipping %d tuples, want the two ranges of r the l inserts read — r=60 in one — and no write",
				name, st.RoundTrips, st.WireTuples)
		}
	}
}

// TestPipelinedBatchCommits: an all-admissible batch on the pipelined
// path commits everything, including the remote propagation.
func TestPipelinedBatchCommits(t *testing.T) {
	co, remote, _ := pipeFixture(t, 4)
	batch := []store.Update{
		store.Ins("l", relation.Ints(100, 101)),
		store.Ins("r", relation.Ints(200)),
		store.Ins("l", relation.Ints(300, 301)),
		store.Del("l", relation.Ints(0, 10)),
	}
	br, err := co.ApplyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if !br.Applied || br.FailedAt != -1 || len(br.Reports) != len(batch) {
		t.Fatalf("batch: applied=%v failedAt=%d reports=%d", br.Applied, br.FailedAt, len(br.Reports))
	}
	if !remote.Contains("r", relation.Ints(200)) {
		t.Fatal("r(200) not propagated to its site")
	}
	if co.Checker.DB().Contains("l", relation.Ints(0, 10)) {
		t.Fatal("delete in batch not applied")
	}
}

// TestPipelinedBatchShardedRollback: an atomic batch whose updates meet
// on dept keys — an emp insert under a key the batch itself inserts
// (admitted only behind that write), one under a key it deletes (rejected
// only behind that write), others under keys of their own — fails where
// applying the members one by one does, with the same reports, at one
// worker and with its reads all in flight at once. Neither dept write
// reaches a shard: every round trip is a key group the members read.
func TestPipelinedBatchShardedRollback(t *testing.T) {
	batch := []store.Update{
		store.Ins("dept", relation.Ints(100)),      // propagated to its shard
		store.Del("dept", relation.Ints(20)),       // no emp refers to it: admitted, propagated
		store.Ins("emp", relation.Ints(5000, 100)), // same key as update 0
		store.Ins("emp", relation.Ints(5001, 21)),  // a key of its own
		store.Ins("emp", relation.Ints(5002, 20)),  // same key as update 1: rejected
		store.Ins("emp", relation.Ints(5003, 22)),  // past the failure
	}
	refCo, _, _ := buildShardedArm(t, shardArm{name: "sharded4", shards: 4})
	failedAt, reports := oneByOne(t, refCo, batch)
	if failedAt != 4 {
		t.Fatalf("reference fails at %d, want 4", failedAt)
	}
	for round := 0; round < 20; round++ {
		for _, workers := range []int{0, 8} {
			name := fmt.Sprintf("round %d workers %d", round, workers)
			co, _, leaders := buildShardedArm(t, shardArm{name: "sharded4", shards: 4, batchWorkers: workers})
			preMirror, preGlobal, pre := dumpStore(co.Checker.DB()), dumpGlobal(co, leaders), co.Stats()
			got, err := co.ApplyBatch(batch)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameBatch(t, name, got, failedAt, reports)
			if m := dumpStore(co.Checker.DB()); m != preMirror {
				t.Fatalf("%s: the rejected batch wrote the mirror\nafter:\n%s\nbefore:\n%s", name, m, preMirror)
			}
			if g := dumpGlobal(co, leaders); g != preGlobal {
				t.Fatalf("%s: the rejected batch wrote the shards (dept(100), dept(20))\nafter:\n%s\nbefore:\n%s", name, g, preGlobal)
			}
			if st := co.Stats(); st.RoundTrips-pre.RoundTrips != st.KeyFetches-pre.KeyFetches || st.KeyFetches == pre.KeyFetches {
				t.Fatalf("%s: %d round trips for %d key fetches, want the key groups the members read and no write",
					name, st.RoundTrips-pre.RoundTrips, st.KeyFetches-pre.KeyFetches)
			}
		}
	}
}

// deptFixture is a coordinator that stores emp, with dept(0…9) sharded
// over two loopback sites whose servers it returns, and emp(1000,3).
func deptFixture(t *testing.T, workers int) (*Coordinator, *Loopback, []*Server) {
	t.Helper()
	place := Placement{"dept": {KeyCol: 0, Shards: []ShardSpec{{Leader: "s0"}, {Leader: "s1"}}}}
	lb := NewLoopback()
	var servers []*Server
	var leaders []*store.Store
	for i := 0; i < 2; i++ {
		db := store.New()
		leaders = append(leaders, db)
		servers = append(servers, NewServer(db, []string{"dept"}))
		lb.AddSite(fmt.Sprintf("s%d", i), servers[i])
	}
	for k := int64(0); k < 10; k++ {
		if _, err := leaders[place.ShardOf("dept", relation.Ints(k)[0])].Insert("dept", relation.Ints(k)); err != nil {
			t.Fatal(err)
		}
	}
	local := store.New()
	if _, err := local.Insert("emp", relation.Ints(1000, 3)); err != nil {
		t.Fatal(err)
	}
	co, err := NewPlaced(local, place, lb, Options{
		Checker:      core.Options{LocalRelations: []string{"emp"}},
		Retries:      -1,
		Backoff:      time.Millisecond,
		ApplyWorkers: workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Checker.AddConstraintSource("ref", "panic :- emp(E, D) & not dept(D)."); err != nil {
		t.Fatal(err)
	}
	return co, lb, servers
}

// mirrorState renders a store with its relation names and data versions.
func mirrorState(db *store.Store) string {
	var b strings.Builder
	for _, name := range db.Names() {
		fmt.Fprintf(&b, "%s v%d\n", name, db.DataVersion(name))
	}
	return b.String() + dumpStore(db)
}

// TestRejectedBatchSendsNoWrite: an atomic batch rejected at its last
// member — after a dept insert it would publish, an emp insert a stored
// employee certifies and one under the inserted department — sends no
// apply frame to any site and leaves the mirror as it was, data versions
// included, at one worker and above.
func TestRejectedBatchSendsNoWrite(t *testing.T) {
	for _, workers := range []int{1, 4} {
		co, _, servers := deptFixture(t, workers)
		before := mirrorState(co.Checker.DB())
		br, err := co.ApplyBatch([]store.Update{
			store.Ins("dept", relation.Ints(50)),
			store.Ins("emp", relation.Ints(2000, 3)),  // certified by emp(1000,3)
			store.Ins("emp", relation.Ints(2001, 50)), // admitted behind the first member
			store.Ins("emp", relation.Ints(2002, 77)), // no such department
		})
		if err != nil || br.Applied || br.FailedAt != 3 {
			t.Fatalf("workers %d: %+v err=%v, want a rejection at 3", workers, br, err)
		}
		for i, srv := range servers {
			if n := srv.Stats().Requests[OpApply]; n != 0 {
				t.Errorf("workers %d: the rejected batch sent %d apply frames to s%d", workers, n, i)
			}
		}
		if after := mirrorState(co.Checker.DB()); after != before {
			t.Errorf("workers %d: the rejected batch wrote the mirror\nbefore:\n%s\nafter:\n%s", workers, before, after)
		}
	}
}

// TestBatchErrorIsNotApplied: a batch one of whose members needs a
// partitioned shard is refused with ErrSiteUnavailable, says it was not
// applied, and writes nothing — not even the member a certificate decided.
func TestBatchErrorIsNotApplied(t *testing.T) {
	co, lb, _ := deptFixture(t, 1)
	lb.Partition(fmt.Sprintf("s%d", co.place.ShardOf("dept", relation.Ints(5)[0])))
	br, err := co.ApplyBatch([]store.Update{
		store.Ins("emp", relation.Ints(2000, 3)), // certified by emp(1000,3)
		store.Ins("emp", relation.Ints(2001, 5)), // nobody in 5: its shard must be asked
	})
	if !errors.Is(err, ErrSiteUnavailable) || br.Applied || br.FailedAt != -1 {
		t.Fatalf("%+v err=%v, want a refusal that applied nothing", br, err)
	}
	if co.Checker.DB().Contains("emp", relation.Ints(2000, 3)) {
		t.Error("the refused batch wrote its first member")
	}
}

// TestFailedPublishKeepsUnchangedTuples: a batch that re-inserts a stored
// dept and inserts one on a partitioned shard is refused, and the stored
// dept stays on its site — the re-insert changed nothing, so nothing is
// withdrawn for it.
func TestFailedPublishKeepsUnchangedTuples(t *testing.T) {
	co, lb, servers := deptFixture(t, 4)
	stored := relation.Ints(3)
	home := co.place.ShardOf("dept", stored[0])
	fresh := relation.Ints(50)
	for k := int64(50); co.place.ShardOf("dept", fresh[0]) == home; k++ {
		fresh = relation.Ints(k)
	}
	lb.Partition(fmt.Sprintf("s%d", co.place.ShardOf("dept", fresh[0])))
	br, err := co.ApplyBatch([]store.Update{store.Ins("dept", stored), store.Ins("dept", fresh)})
	if !errors.Is(err, ErrSiteUnavailable) || br.Applied {
		t.Fatalf("%+v err=%v, want a refusal", br, err)
	}
	if !servers[home].db.Contains("dept", stored) {
		t.Error("the refused batch withdrew dept(3), which it had not changed, from its site")
	}
	if !co.Checker.DB().Contains("dept", stored) || co.Checker.DB().Contains("dept", fresh) {
		t.Error("the refused batch moved the mirror")
	}
}

// parkedTransport holds every round trip at the site until release and
// says when one has arrived.
type parkedTransport struct {
	Transport
	arrived chan struct{}
	release chan struct{}
}

func (p parkedTransport) RoundTrip(site string, req *Request, timeout time.Duration) (*Response, error) {
	p.arrived <- struct{}{}
	<-p.release
	return p.Transport.RoundTrip(site, req, timeout)
}

// parked starts run and waits until n round trips are parked on wire at
// once, then lets them all go; it fails the test if fewer arrive.
func parked(t *testing.T, name string, wire parkedTransport, n, workers int, run func() error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- run() }()
	for i := 0; i < n; i++ {
		select {
		case <-wire.arrived:
		case <-time.After(10 * time.Second):
			close(wire.release)
			t.Fatalf("%s: %d of %d reads on the wire with %d workers: the rest are waiting", name, i, n, workers)
		}
	}
	close(wire.release)
	if err := <-done; err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// TestWireTasksOutnumberWorkers: a scheduler driving a coordinator counts
// computing tasks against its workers, not tasks waiting on a site: six l
// inserts that each need r refreshed are all on the wire at once behind
// two workers. An atomic batch above one worker sends its reads at once
// too: six emp inserts under six departments nobody works in, six key
// groups to fetch. Either way the outcome is the sequential loop's.
func TestWireTasksOutnumberWorkers(t *testing.T) {
	const wired, workers = 6, 2
	var us []store.Update
	for i := int64(0); i < wired; i++ {
		us = append(us, store.Ins("l", relation.Ints(1000+10*i, 1001+10*i)))
	}
	us = append(us, store.Del("l", relation.Ints(0, 10))) // decided by polarity: never on the wire
	seqCo, seqRemote, _ := pipeFixture(t, 1)
	for i, r := range applyStream(seqCo, us, 1) {
		if r.Err != nil || !r.Report.Applied {
			t.Fatalf("sequential update %d: %+v", i, r)
		}
	}
	co, remote, _ := pipeFixture(t, workers)
	wire := parkedTransport{co.transport, make(chan struct{}, wired), make(chan struct{})}
	co.transport = wire
	parked(t, "stream", wire, wired, workers, func() error {
		for _, r := range applyStream(co, us, workers) {
			if r.Err != nil || !r.Report.Applied {
				return fmt.Errorf("%+v", r)
			}
		}
		return nil
	})
	if got, want := dumpStore(co.Checker.DB()), dumpStore(seqCo.Checker.DB()); got != want {
		t.Fatalf("stream: mirror diverged\npipelined:\n%s\nsequential:\n%s", got, want)
	}
	if got, want := dumpStore(remote), dumpStore(seqRemote); got != want {
		t.Fatalf("stream: site store diverged\npipelined:\n%s\nsequential:\n%s", got, want)
	}

	var batch []store.Update
	for i := int64(0); i < wired; i++ {
		batch = append(batch, store.Ins("emp", relation.Ints(2000+i, 10+i))) // departments 10… have nobody
	}
	batch = append(batch, store.Del("emp", relation.Ints(1003, 3))) // decided by polarity
	seqSharded, _, seqLeaders := buildShardedArm(t, shardArm{name: "sharded4", shards: 4})
	for i, r := range applyStream(seqSharded, batch, 1) {
		if r.Err != nil || !r.Report.Applied {
			t.Fatalf("sequential member %d: %+v", i, r)
		}
	}
	sharded, _, leaders := buildShardedArm(t, shardArm{name: "sharded4", shards: 4, batchWorkers: workers})
	wire = parkedTransport{sharded.transport, make(chan struct{}, wired), make(chan struct{})}
	sharded.transport = wire
	parked(t, "ApplyBatch", wire, wired, workers, func() error {
		br, err := sharded.ApplyBatch(batch)
		if err == nil && !br.Applied {
			err = fmt.Errorf("rejected at %d", br.FailedAt)
		}
		return err
	})
	if got, want := dumpGlobal(sharded, leaders), dumpGlobal(seqSharded, seqLeaders); got != want {
		t.Fatalf("ApplyBatch: stores diverged\nbatch:\n%s\nsequential:\n%s", got, want)
	}
}
