package netdist

import (
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

// TestPipelinedBatchAtomicRollback: a rejection mid-batch must roll the
// whole batch back — mirror AND remote site — and report the failure
// index and reports of applying the members one by one, at any number of
// workers. At one worker nothing past the failure reaches the wire: the
// batch makes the reference's round trips and the one un-propagation.
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
	refTrips := refCo.Stats().RoundTrips
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
			t.Fatalf("%s: mirror not rolled back\nafter:\n%s\nbefore:\n%s", name, got, preMirror)
		}
		if got := dumpStore(remote); got != preSite {
			t.Fatalf("%s: site store not rolled back (r(200) must be un-propagated)\nafter:\n%s\nbefore:\n%s", name, got, preSite)
		}
		if trips := co.Stats().RoundTrips; workers <= 1 && trips != refTrips+1 {
			t.Fatalf("%s: %d round trips, want the reference's %d and one un-propagation", name, trips, refTrips)
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

// TestPipelinedBatchShardedRollback: an atomic batch on the scheduler
// whose updates meet on dept keys — an emp insert under a key the batch
// itself inserts (admitted only behind that write), one under a key it
// deletes (rejected only behind that write), others under keys of their
// own (free to overlap) — fails where applying the members one by one
// does, with the same reports, and the rollback takes both dept writes
// back off their shards.
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
			preMirror, preGlobal := dumpStore(co.Checker.DB()), dumpGlobal(co, leaders)
			got, err := co.ApplyBatch(batch)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameBatch(t, name, got, failedAt, reports)
			if m := dumpStore(co.Checker.DB()); m != preMirror {
				t.Fatalf("%s: mirror not rolled back\nafter:\n%s\nbefore:\n%s", name, m, preMirror)
			}
			if g := dumpGlobal(co, leaders); g != preGlobal {
				t.Fatalf("%s: shards not rolled back (dept(100) and dept(20) must be un-propagated)\nafter:\n%s\nbefore:\n%s", name, g, preGlobal)
			}
		}
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

// TestWireTasksOutnumberWorkers: a scheduler driving a coordinator — a
// stream of applies, and ApplyBatch's own above one worker — counts
// computing tasks against its workers, not tasks waiting on a site. Six l inserts that
// each need r refreshed are all on the wire at once behind two workers,
// and the outcome is the sequential loop's.
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
	for name, run := range map[string]func(*Coordinator) error{
		"stream": func(co *Coordinator) error {
			for _, r := range applyStream(co, us, workers) {
				if r.Err != nil || !r.Report.Applied {
					return fmt.Errorf("%+v", r)
				}
			}
			return nil
		},
		"ApplyBatch": func(co *Coordinator) error {
			br, err := co.ApplyBatch(us)
			if err == nil && !br.Applied {
				err = fmt.Errorf("rejected at %d", br.FailedAt)
			}
			return err
		},
	} {
		co, remote, _ := pipeFixture(t, workers)
		wire := parkedTransport{co.transport, make(chan struct{}, wired), make(chan struct{})}
		co.transport = wire
		done := make(chan error, 1)
		go func() { done <- run(co) }()
		for i := 0; i < wired; i++ {
			select {
			case <-wire.arrived:
			case <-time.After(10 * time.Second):
				close(wire.release)
				t.Fatalf("%s: %d of %d refreshes on the wire with %d workers: the rest are waiting for a worker", name, i, wired, workers)
			}
		}
		close(wire.release)
		if err := <-done; err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := dumpStore(co.Checker.DB()), dumpStore(seqCo.Checker.DB()); got != want {
			t.Fatalf("%s: mirror diverged\npipelined:\n%s\nsequential:\n%s", name, got, want)
		}
		if got, want := dumpStore(remote), dumpStore(seqRemote); got != want {
			t.Fatalf("%s: site store diverged\npipelined:\n%s\nsequential:\n%s", name, got, want)
		}
	}
}
