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

// TestPipelinedBatchAtomicRollback: a rejection mid-batch on the
// pipelined ApplyBatch path must roll the whole batch back — mirror AND
// remote site — and report the same failure index as the sequential arm.
func TestPipelinedBatchAtomicRollback(t *testing.T) {
	batch := []store.Update{
		store.Ins("l", relation.Ints(100, 101)), // admissible
		store.Ins("r", relation.Ints(200)),      // admissible, propagates to siteR
		store.Ins("l", relation.Ints(55, 65)),   // covers r=60: rejected
		store.Ins("l", relation.Ints(300, 301)), // past the failure; sequential never runs it
	}

	seqCo, seqRemote, _ := pipeFixture(t, 1)
	seqBr, seqErr := seqCo.ApplyBatch(batch)
	if seqErr != nil {
		t.Fatal(seqErr)
	}

	co, remote, _ := pipeFixture(t, 8)
	preMirror, preSite := dumpStore(co.Checker.DB()), dumpStore(remote)
	br, err := co.ApplyBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	if br.Applied || br.FailedAt != 2 {
		t.Fatalf("pipelined batch: applied=%v failedAt=%d, want rejection at 2", br.Applied, br.FailedAt)
	}
	if br.Applied != seqBr.Applied || br.FailedAt != seqBr.FailedAt || len(br.Reports) != len(seqBr.Reports) {
		t.Fatalf("pipelined outcome (failedAt=%d, %d reports) != sequential (failedAt=%d, %d reports)",
			br.FailedAt, len(br.Reports), seqBr.FailedAt, len(seqBr.Reports))
	}
	for i := range br.Reports {
		if renderReport(br.Reports[i]) != renderReport(seqBr.Reports[i]) {
			t.Fatalf("report %d diverged\npipelined: %s\nsequential: %s",
				i, renderReport(br.Reports[i]), renderReport(seqBr.Reports[i]))
		}
	}
	if got := dumpStore(co.Checker.DB()); got != preMirror {
		t.Fatalf("mirror not rolled back\nafter:\n%s\nbefore:\n%s", got, preMirror)
	}
	if got := dumpStore(remote); got != preSite {
		t.Fatalf("site store not rolled back (r(200) must be un-propagated)\nafter:\n%s\nbefore:\n%s", got, preSite)
	}
	if got := dumpStore(seqRemote); got != preSite {
		t.Fatalf("sequential arm site store diverged:\n%s", got)
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
// own (free to overlap) — fails at the sequential arm's index with the
// sequential arm's reports, and the rollback takes both dept writes back
// off their shards.
func TestPipelinedBatchShardedRollback(t *testing.T) {
	batch := []store.Update{
		store.Ins("dept", relation.Ints(100)),      // propagated to its shard
		store.Del("dept", relation.Ints(20)),       // no emp refers to it: admitted, propagated
		store.Ins("emp", relation.Ints(5000, 100)), // same key as update 0
		store.Ins("emp", relation.Ints(5001, 21)),  // a key of its own
		store.Ins("emp", relation.Ints(5002, 20)),  // same key as update 1: rejected
		store.Ins("emp", relation.Ints(5003, 22)),  // past the failure
	}
	arm := shardArm{name: "sharded4", shards: 4}
	seqCo, _, seqLeaders := buildShardedArm(t, arm)
	want, err := seqCo.ApplyBatch(batch)
	if err != nil || want.Applied || want.FailedAt != 4 {
		t.Fatalf("sequential batch: %+v %v, want a rejection at 4", want, err)
	}
	for round := 0; round < 20; round++ {
		co, _, leaders := buildShardedArm(t, arm)
		preMirror, preGlobal := dumpStore(co.Checker.DB()), dumpGlobal(co, leaders)
		got, err := co.applyBatchPipelined(batch, 8)
		if err != nil {
			t.Fatal(err)
		}
		if got.Applied != want.Applied || got.FailedAt != want.FailedAt || len(got.Reports) != len(want.Reports) {
			t.Fatalf("round %d: pipelined outcome (failedAt=%d, %d reports) != sequential (failedAt=%d, %d reports)",
				round, got.FailedAt, len(got.Reports), want.FailedAt, len(want.Reports))
		}
		for i := range got.Reports {
			if renderReport(got.Reports[i]) != renderReport(want.Reports[i]) {
				t.Fatalf("round %d: report %d diverged\npipelined: %s\nsequential: %s",
					round, i, renderReport(got.Reports[i]), renderReport(want.Reports[i]))
			}
		}
		if m := dumpStore(co.Checker.DB()); m != preMirror {
			t.Fatalf("round %d: mirror not rolled back\nafter:\n%s\nbefore:\n%s", round, m, preMirror)
		}
		if g := dumpGlobal(co, leaders); g != preGlobal || g != dumpGlobal(seqCo, seqLeaders) {
			t.Fatalf("round %d: shards not rolled back (dept(100) and dept(20) must be un-propagated)\nafter:\n%s\nbefore:\n%s", round, g, preGlobal)
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
// stream of applies, and the pipelined ApplyBatch's own — counts
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
