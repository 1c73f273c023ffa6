package serve

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netdist"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/store"
)

// pipelineFixture builds the D1 forbidden-interval fixture with a few
// seeded intervals and points so the randomized stream produces a mix
// of admitted and violating updates.
func pipelineFixture(t *testing.T) *core.Checker {
	t.Helper()
	db := store.New()
	for _, iv := range [][2]int64{{0, 10}, {20, 30}, {40, 50}} {
		if _, err := db.Insert("l", relation.Ints(iv[0], iv[1])); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range []int64{15, 35, 60} {
		if _, err := db.Insert("r", relation.Ints(p)); err != nil {
			t.Fatal(err)
		}
	}
	chk := core.New(db, core.Options{})
	if err := chk.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
		t.Fatal(err)
	}
	return chk
}

// randomStream generates updates over a deliberately small coordinate
// band so conflicting patterns (same tuples, interacting relations) are
// common.
func randomStream(seed int64, n int) []store.Update {
	rng := rand.New(rand.NewSource(seed))
	us := make([]store.Update, n)
	for i := range us {
		if rng.Intn(2) == 0 {
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

// dump renders the store deterministically (sorted relations, sorted
// tuples) for exact cross-arm comparison.
func dump(db *store.Store) string {
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

// verdicts flattens a batch outcome's per-update verdicts.
func verdicts(out BatchOutcome) []bool {
	vs := make([]bool, len(out.Reports))
	for i, rep := range out.Reports {
		vs[i] = rep.Applied
	}
	return vs
}

// TestPipelineAgreement is the randomized agreement test: the same
// stream, submitted as one non-atomic batch (so the admission order is
// fixed), must produce identical per-update verdicts and an identical
// final store under the sequential arm and the scheduler at 4 and 8
// workers.
func TestPipelineAgreement(t *testing.T) {
	const n = 300
	for _, seed := range []int64{1, 7, 42} {
		stream := randomStream(seed, n)

		var wantVerdicts []bool
		var wantDump string
		for _, workers := range []int{1, 4, 8} {
			chk := pipelineFixture(t)
			s := New(chk, Config{ApplyWorkers: workers, QueueDepth: 16, MaxBatch: n})
			if workers > 1 && s.ApplyWorkers() != workers {
				t.Fatalf("seed %d: pipelined arm fell back to sequential", seed)
			}
			out, err := s.Batch("agree", stream, false)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			s.Close()
			vs, d := verdicts(out), dump(chk.DB())
			if workers == 1 {
				wantVerdicts, wantDump = vs, d
				continue
			}
			for i := range vs {
				if vs[i] != wantVerdicts[i] {
					t.Fatalf("seed %d workers %d: verdict diverged at update %d (%v): got applied=%v, sequential=%v",
						seed, workers, i, stream[i], vs[i], wantVerdicts[i])
				}
			}
			if d != wantDump {
				t.Fatalf("seed %d workers %d: final store diverged\npipelined:\n%s\nsequential:\n%s", seed, workers, d, wantDump)
			}
		}
	}
}

// TestPipelineConflictOrder is the directed admission-order test: an
// insert and a delete of the same tuple conflict (same write
// fingerprint), so the scheduler must apply them in admission order —
// the tuple must be absent afterwards, every time.
func TestPipelineConflictOrder(t *testing.T) {
	for round := 0; round < 50; round++ {
		chk := pipelineFixture(t)
		s := New(chk, Config{ApplyWorkers: 8, QueueDepth: 64})
		tup := relation.Ints(70, 75)

		// A non-atomic batch decomposes into two concurrent scheduler
		// tasks, admitted insert-first. They write the same fingerprint,
		// so the scheduler must serialize them in that order: the tuple
		// ends up absent. A scheduler that reordered them would run the
		// delete as a no-op and leave the insert behind.
		out, err := s.Batch("order", []store.Update{store.Ins("l", tup), store.Del("l", tup)}, false)
		if err != nil {
			t.Fatal(err)
		}
		if out.Applied != 2 {
			t.Fatalf("round %d: applied %d/2", round, out.Applied)
		}
		s.Close()
		if chk.DB().Contains("l", tup) {
			t.Fatalf("round %d: insert and delete ran out of admission order", round)
		}
	}
}

// TestPipelineConcurrentClients hammers the pipelined server from many
// goroutines (run with -race) and cross-checks the final store against
// a sequential replay of the per-client streams in some serialization —
// here each client's updates target distinct tuples, so the final store
// is independent of interleaving.
func TestPipelineConcurrentClients(t *testing.T) {
	chk := pipelineFixture(t)
	s := New(chk, Config{ApplyWorkers: 4, QueueDepth: 256})

	const clients, per = 8, 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			base := int64(1000 + c*100)
			for i := 0; i < per; i++ {
				tup := relation.Ints(base+int64(i), base+int64(i))
				if _, err := s.Apply(fmt.Sprintf("c%d", c), store.Ins("l", tup)); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	st := s.Stats()
	if st.SchedTasks < clients*per {
		t.Fatalf("sched tasks = %d, want >= %d", st.SchedTasks, clients*per)
	}
	s.Close()
	for c := 0; c < clients; c++ {
		base := int64(1000 + c*100)
		for i := 0; i < per; i++ {
			if !chk.DB().Contains("l", relation.Ints(base+int64(i), base+int64(i))) {
				t.Fatalf("client %d update %d missing from final store", c, i)
			}
		}
	}
}

// TestPipelineFallsBackWithoutFootprints: a plain Backend (no footprint
// support) must run on the sequential arm even when ApplyWorkers asks
// for more.
func TestPipelineFallsBackWithoutFootprints(t *testing.T) {
	chk := pipelineFixture(t)
	s := New(opaqueBackend{chk}, Config{ApplyWorkers: 8})
	defer s.Close()
	if got := s.ApplyWorkers(); got != 1 {
		t.Fatalf("effective workers = %d, want sequential fallback 1", got)
	}
	if _, err := s.Apply("fb", store.Ins("l", relation.Ints(200, 201))); err != nil {
		t.Fatal(err)
	}
}

// TestBatchErrorSameAtEveryWidth: a non-atomic batch whose middle update
// fails — an insert of the wrong arity, an error rather than a violation
// — gets one reply at one worker and at four: the reports before the
// error, the error, and how many of them were applied.
func TestBatchErrorSameAtEveryWidth(t *testing.T) {
	batch := []store.Update{
		store.Ins("r", relation.Ints(100)),
		store.Ins("l", relation.Ints(5)), // l has arity 2
		store.Ins("r", relation.Ints(200)),
	}
	var want string
	for _, workers := range []int{1, 4} {
		s := New(pipelineFixture(t), Config{ApplyWorkers: workers})
		out, err := s.Batch("arity", batch, false)
		s.Close()
		if err == nil {
			t.Fatalf("workers %d: the wrong-arity insert raised no error: %+v", workers, out)
		}
		got := fmt.Sprintf("reports=%v applied=%d failedAt=%d error=%v", verdicts(out), out.Applied, out.FailedAt, err)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("workers %d: %s\none worker: %s", workers, got, want)
		}
	}
	if !strings.HasPrefix(want, "reports=[true] applied=1 failedAt=-1 error=") {
		t.Fatalf("reply %s, want the first report and the error", want)
	}
}

// TestOneWorkerRunsNoScheduler: at one apply worker every request is
// decided at the server's turn — checks, applies, batches of both kinds,
// stats — and nothing is submitted to a scheduler.
func TestOneWorkerRunsNoScheduler(t *testing.T) {
	for _, workers := range []int{0, 1} {
		s := New(pipelineFixture(t), Config{ApplyWorkers: workers})
		us := []store.Update{store.Ins("r", relation.Ints(100)), store.Ins("r", relation.Ints(5))}
		for _, err := range []error{
			func() error { _, err := s.Check("one", us[1]); return err }(),
			func() error { _, err := s.Apply("one", us[0]); return err }(),
			func() error { _, err := s.Batch("one", us, true); return err }(),
			func() error { _, err := s.Batch("one", us, false); return err }(),
			func() error { _, err := s.CheckerStats(); return err }(),
		} {
			if err != nil {
				t.Fatalf("workers %d: %v", workers, err)
			}
		}
		st := s.Stats()
		s.Close()
		if st.ApplyWorkers != 1 || st.SchedTasks != 0 || st.Requests[EndpointBatch] != 2 {
			t.Fatalf("workers %d: apply workers %d, %d scheduler tasks, requests %v", workers, st.ApplyWorkers, st.SchedTasks, st.Requests)
		}
	}
}

// TestPipelineGlobalPhaseAgreement: a recursive constraint, whose insert
// decisions run delta rounds on a kept fixpoint, is served by the
// pipelined arm like any other (there is no configuration left that
// forbids concurrent applies) with the sequential arm's verdicts and
// final store.
func TestPipelineGlobalPhaseAgreement(t *testing.T) {
	const nodes, n = 12, 240
	rng := rand.New(rand.NewSource(5))
	stream := make([]store.Update, n)
	for i := range stream {
		switch rng.Intn(3) {
		case 0:
			stream[i] = store.Ins("edge", relation.Ints(int64(rng.Intn(nodes)), int64(rng.Intn(nodes))))
		case 1:
			stream[i] = store.Del("edge", relation.Ints(int64(rng.Intn(nodes)), int64(rng.Intn(nodes))))
		default:
			stream[i] = store.Ins("log", relation.Ints(int64(i)))
		}
	}
	var wantVerdicts []bool
	var wantDump string
	for _, workers := range []int{1, 8} {
		db := store.New()
		for i := int64(0); i < nodes-1; i += 2 {
			if _, err := db.Insert("edge", relation.Ints(i, i+1)); err != nil {
				t.Fatal(err)
			}
		}
		chk := core.New(db, core.Options{})
		if err := chk.AddConstraintSource("acyclic",
			"reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- reach(X,Z) & edge(Z,Y).\npanic :- reach(X,X)."); err != nil {
			t.Fatal(err)
		}
		s := New(chk, Config{ApplyWorkers: workers, QueueDepth: 16, MaxBatch: n})
		if got := s.ApplyWorkers(); got != workers {
			t.Fatalf("effective workers = %d, want %d", got, workers)
		}
		out, err := s.Batch("global", stream, false)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		s.Close()
		if st := chk.Stats(); st.FixpointHits == 0 {
			t.Fatalf("workers %d: no decision used a kept fixpoint: %+v", workers, st)
		}
		vs, d := verdicts(out), dump(chk.DB())
		if workers == 1 {
			wantVerdicts, wantDump = vs, d
			continue
		}
		for i := range vs {
			if vs[i] != wantVerdicts[i] {
				t.Fatalf("verdict diverged at update %d (%v): got applied=%v, sequential=%v", i, stream[i], vs[i], wantVerdicts[i])
			}
		}
		if d != wantDump {
			t.Fatalf("final store diverged\npipelined:\n%s\nsequential:\n%s", d, wantDump)
		}
	}
}

// opaqueBackend hides the checker's footprint methods behind the plain
// Backend surface.
type opaqueBackend struct{ chk *core.Checker }

func (o opaqueBackend) Check(u store.Update) (core.Report, error) { return o.chk.Check(u) }
func (o opaqueBackend) Apply(u store.Update) (core.Report, error) { return o.chk.Apply(u) }
func (o opaqueBackend) Stats() core.Stats                         { return o.chk.Stats() }
func (o opaqueBackend) ApplyBatch(us []store.Update) (core.BatchReport, error) {
	return o.chk.ApplyBatch(us)
}

// A request of the mixed stream: a check, an apply, or an atomic batch.
type request struct {
	op opKind
	u  store.Update
	us []store.Update
}

// keyRequests generates a stream over the referential constraint (and
// the interval one beside it) whose dept keys come from one small band:
// a dept(K) write meets emp(_, K) inserts and checks — which must keep
// admission order — and emp(_, K') ones — which may overlap it — in
// every window. One request in ten is an atomic batch that writes dept
// keys and may end on an employee of a department nobody has (ghost), so
// that its rollback takes those dept writes back.
func keyRequests(seed int64, n int) []request {
	const band, ghost = 12, 99
	rng := rand.New(rand.NewSource(seed))
	emp := func(k int64) store.Update {
		return store.Ins("emp", relation.Ints(2000+int64(rng.Intn(40)), k))
	}
	dept := func() store.Update {
		u := store.Ins("dept", relation.Ints(int64(rng.Intn(band))))
		if rng.Intn(2) == 0 {
			u = store.Del("dept", u.Tuple)
		}
		return u
	}
	one := func() store.Update {
		switch p := rng.Intn(100); {
		case p < 45:
			u := emp(int64(rng.Intn(band)))
			if rng.Intn(4) == 0 {
				u = store.Del("emp", u.Tuple)
			}
			return u
		case p < 80:
			return dept()
		case p < 90:
			lo := int64(rng.Intn(80))
			return store.Ins("l", relation.Ints(lo, lo+int64(rng.Intn(10))))
		default:
			u := store.Ins("r", relation.Ints(int64(rng.Intn(100))))
			if rng.Intn(3) == 0 {
				u = store.Del("r", u.Tuple)
			}
			return u
		}
	}
	reqs := make([]request, n)
	for i := range reqs {
		switch p := rng.Intn(10); {
		case p == 0:
			us := []store.Update{dept(), dept(), emp(int64(rng.Intn(band))), one()}
			if rng.Intn(2) == 0 {
				us = append(us, emp(ghost))
			}
			reqs[i] = request{op: opBatch, us: us}
		case p < 4:
			reqs[i] = request{op: opCheck, u: one()}
		default:
			reqs[i] = request{op: opApply, u: one()}
		}
	}
	return reqs
}

// witnessRequests is keyRequests squeezed until local certificates
// collide: four departments and eight employees, so that nearly every emp
// insert or check finds a stored employee of its department to certify it
// (netdist coordinators compile the certificate; an embedded checker runs
// the same stream without), deletes keep taking the last witness of a
// department away, dept deletes follow them, and one request in eight is
// an atomic batch whose first member is the witness of its third — and
// which, half the time, ends on a ghost department and is rolled back,
// witness included. The stream opens by deleting the employees
// seedKeyStores puts in those four departments, so that every witness is
// one the stream inserted and can delete.
func witnessRequests(seed int64, n int) []request {
	const band, ghost = 4, 99
	rng := rand.New(rand.NewSource(seed))
	emp := func(k int64) store.Update {
		return store.Ins("emp", relation.Ints(2000+int64(rng.Intn(8)), k))
	}
	one := func() store.Update {
		switch p := rng.Intn(100); {
		case p < 45:
			return emp(int64(rng.Intn(band)))
		case p < 75:
			return store.Del("emp", emp(int64(rng.Intn(band))).Tuple)
		case p < 90:
			return store.Del("dept", relation.Ints(int64(rng.Intn(band))))
		default:
			return store.Ins("dept", relation.Ints(int64(rng.Intn(band))))
		}
	}
	reqs := make([]request, n)
	for i := range reqs {
		switch p := rng.Intn(8); {
		case i < band:
			reqs[i] = request{op: opApply, u: store.Del("emp", relation.Ints(1000+int64(i), int64(i)))}
		case p == 0:
			k := int64(rng.Intn(band))
			us := []store.Update{emp(k), emp(int64(rng.Intn(band))), emp(k)}
			if rng.Intn(2) == 0 {
				us = append(us, emp(ghost))
			}
			reqs[i] = request{op: opBatch, us: us}
		case p < 3:
			reqs[i] = request{op: opCheck, u: emp(int64(rng.Intn(band)))}
		default:
			reqs[i] = request{op: opApply, u: one()}
		}
	}
	return reqs
}

// seedKeyStores fills the four relations of the keyRequests stream:
// departments 0..7 (so 8..11 start absent), one employee in each of the
// first six, the intervals and points of pipelineFixture.
func seedKeyStores(t *testing.T, insert func(rel string, tup relation.Tuple)) {
	t.Helper()
	for k := int64(0); k < 8; k++ {
		insert("dept", relation.Ints(k))
	}
	for k := int64(0); k < 6; k++ {
		insert("emp", relation.Ints(1000+k, k))
	}
	for _, iv := range [][2]int64{{0, 10}, {20, 30}, {40, 50}} {
		insert("l", relation.Ints(iv[0], iv[1]))
	}
	for _, p := range []int64{15, 35, 60} {
		insert("r", relation.Ints(p))
	}
}

const (
	refSrc = "panic :- emp(E,D) & not dept(D)."
	fiSrc  = "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."
)

// runRequests submits the requests in order from one goroutine — so the
// scheduler's admission order is the slice's, and at one worker each is
// decided before the next is submitted — and only then collects the
// answers, so that as many as the scheduler allows are in flight
// together. Each answer is rendered down to what a client can tell apart.
func runRequests(t *testing.T, s *Server, reqs []request) []string {
	t.Helper()
	tasks := make([]*task, len(reqs))
	for i, r := range reqs {
		tasks[i] = &task{op: r.op, client: "agree", u: r.u, us: r.us, atomic: true,
			reply: make(chan taskResult, 1), enqueued: time.Now()}
		if err := s.submit(tasks[i]); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	out := make([]string, len(reqs))
	for i, tk := range tasks {
		res := <-tk.reply
		switch {
		case res.err != nil:
			t.Fatalf("request %d (%v %v): %v", i, reqs[i].u, reqs[i].us, res.err)
		case tk.op == opBatch:
			out[i] = fmt.Sprintf("batch applied=%d failedAt=%d reports=%v", res.batch.Applied, res.batch.FailedAt, verdicts(res.batch))
		default:
			out[i] = fmt.Sprintf("applied=%v violations=%v", res.rep.Applied, res.rep.Violations())
		}
	}
	return out
}

// TestPipelineKeyGroupAgreement is TestPipelineAgreement on traffic
// that key-group footprints let overlap: checks, applies and atomic
// batches (some rolled back) whose dept keys collide and differ, decided
// by an embedded checker behind the sequential arm and behind the
// scheduler at 4 and 8 workers — same answers, same final store.
func TestPipelineKeyGroupAgreement(t *testing.T) {
	const n = 400
	for _, seed := range []int64{2, 9, 31} {
		reqs := keyRequests(seed, n)
		var want []string
		var wantDump string
		for _, workers := range []int{1, 4, 8} {
			db := store.New()
			seedKeyStores(t, func(rel string, tup relation.Tuple) {
				if _, err := db.Insert(rel, tup); err != nil {
					t.Fatal(err)
				}
			})
			chk := core.New(db, core.Options{})
			for name, src := range map[string]string{"ref": refSrc, "fi": fiSrc} {
				if err := chk.AddConstraintSource(name, src); err != nil {
					t.Fatal(err)
				}
			}
			s := New(chk, Config{ApplyWorkers: workers, QueueDepth: n})
			got := runRequests(t, s, reqs)
			stalls := s.Stats().SchedConflictStalls
			s.Close()
			d := dump(db)
			if workers == 1 {
				want, wantDump = got, d
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d workers %d: request %d (%v %v) answered %q, sequential arm %q",
						seed, workers, i, reqs[i].u, reqs[i].us, got[i], want[i])
				}
			}
			if d != wantDump {
				t.Fatalf("seed %d workers %d: final store diverged\npipelined:\n%s\nsequential:\n%s", seed, workers, d, wantDump)
			}
			if stalls == 0 || stalls == int64(n) {
				t.Fatalf("seed %d workers %d: %d of %d requests stalled: the stream is meant to mix colliding and disjoint keys", seed, workers, stalls, n)
			}
		}
	}
}

// flightCounter is a Transport that knows how many round trips are in
// flight at once.
type flightCounter struct {
	netdist.Transport
	now, most atomic.Int64
}

func (f *flightCounter) RoundTrip(site string, req *netdist.Request, timeout time.Duration) (*netdist.Response, error) {
	n := f.now.Add(1)
	for m := f.most.Load(); n > m && !f.most.CompareAndSwap(m, n); m = f.most.Load() {
	}
	defer f.now.Add(-1)
	return f.Transport.RoundTrip(site, req, timeout)
}

// shardedFixture is the deployment of the dist_sharded benchmark in
// small: a coordinator that stores emp and l, whose dept is hash-sharded
// over four sites and whose r lives on a fifth, seeded by seedKeyStores,
// behind a server with the given apply workers and room for depth
// requests. wrap, when non-nil, goes between the coordinator and the
// loopback. With more than one worker every site answers after a delay,
// so that the tasks the scheduler lets overlap do overlap.
func shardedFixture(t *testing.T, workers, depth int, wrap func(netdist.Transport) netdist.Transport) (*Server, *netdist.Coordinator, []*store.Store) {
	t.Helper()
	const shards = 4
	place := netdist.Placement{"r": {Shards: []netdist.ShardSpec{{Leader: "siteR"}}}}
	dept := netdist.RelPlacement{KeyCol: 0}
	lb := netdist.NewLoopback()
	sites := make([]*store.Store, shards+1)
	for i := range sites {
		sites[i] = store.New()
	}
	for i := 0; i < shards; i++ {
		name := fmt.Sprintf("s%d", i)
		dept.Shards = append(dept.Shards, netdist.ShardSpec{Leader: name})
		lb.AddSite(name, netdist.NewServer(sites[i], []string{"dept"}))
	}
	place["dept"] = dept
	lb.AddSite("siteR", netdist.NewServer(sites[shards], []string{"r"}))
	local := store.New()
	seedKeyStores(t, func(rel string, tup relation.Tuple) {
		db := local
		switch rel {
		case "dept":
			db = sites[place.ShardOf("dept", tup[0])]
		case "r":
			db = sites[shards]
		}
		if _, err := db.Insert(rel, tup); err != nil {
			t.Fatal(err)
		}
	})
	var tr netdist.Transport = lb
	if wrap != nil {
		tr = wrap(lb)
	}
	co, err := netdist.NewPlaced(local, place, tr, netdist.Options{
		Checker: core.Options{LocalRelations: []string{"emp", "l"}},
		Timeout: 5 * time.Second,
		Backoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{"ref": refSrc, "fi": fiSrc} {
		if err := co.Checker.AddConstraintSource(name, src); err != nil {
			t.Fatal(err)
		}
	}
	if workers > 1 {
		for i := 0; i < shards; i++ {
			lb.SetLatency(fmt.Sprintf("s%d", i), 200*time.Microsecond)
		}
		lb.SetLatency("siteR", 200*time.Microsecond)
	}
	return New(netdist.ServeBackend{Co: co}, Config{ApplyWorkers: workers, QueueDepth: depth}), co, sites
}

// mergedSites dumps the union of the site stores.
func mergedSites(t *testing.T, sites []*store.Store) string {
	t.Helper()
	all := store.New()
	for _, db := range sites {
		for _, rel := range db.Names() {
			for _, tup := range db.Tuples(rel) {
				if _, err := all.Insert(rel, tup); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return dump(all)
}

// TestPipelineCoordinatorKeyGroupAgreement is the same agreement with
// the backend the dist_sharded benchmark runs: a coordinator whose dept
// is hash-sharded over four sites and whose r lives on a fifth, every
// site answering after a delay, so that the tasks the scheduler lets
// overlap do overlap — a refresh of one dept key group in flight while
// another task writes a neighbouring one, a rollback un-propagating a
// dept write while employees of other departments are checked — at 2
// workers with more of them on the wire than there are workers. Answers,
// the coordinator's mirror and the merged site stores must match one
// worker's, and at one worker so must the round trips.
func TestPipelineCoordinatorKeyGroupAgreement(t *testing.T) {
	const n = 160
	for seed, reqs := range map[int64][]request{
		4: keyRequests(4, n), 17: keyRequests(17, n),
		// Witnesses that collide: see witnessRequests.
		5: witnessRequests(5, n), 11: witnessRequests(11, n),
	} {
		var want []string
		var wantMirror, wantSites string
		var wantTrips int
		var wantCertified int64
		for _, workers := range []int{1, 1, 2, 4, 8} {
			var flights *flightCounter
			s, co, sites := shardedFixture(t, workers, n, func(tr netdist.Transport) netdist.Transport {
				flights = &flightCounter{Transport: tr}
				return flights
			})
			if got := s.ApplyWorkers(); got != workers {
				t.Fatalf("effective workers = %d, want %d", got, workers)
			}
			got := runRequests(t, s, reqs)
			s.Close()
			// A task on the wire holds no worker: two workers keep more
			// than two round trips in flight.
			if most := flights.most.Load(); workers == 2 && most <= 2 {
				t.Fatalf("seed %d: at most %d round trips in flight at once with 2 workers, want more on the wire than workers", seed, most)
			}
			mirror, remote := dump(co.Checker.DB()), mergedSites(t, sites)
			if want == nil {
				want, wantMirror, wantSites = got, mirror, remote
				wantTrips, wantCertified = co.Stats().RoundTrips, co.Checker.Stats().LocalCertified
				if wantCertified == 0 {
					t.Fatalf("seed %d: no decision was certified locally", seed)
				}
				continue
			}
			if workers == 1 {
				// One worker interleaves nothing: the wire counts repeat exactly.
				if trips, certified := co.Stats().RoundTrips, co.Checker.Stats().LocalCertified; trips != wantTrips || certified != wantCertified {
					t.Fatalf("seed %d: %d round trips and %d certified decisions, then %d and %d", seed, wantTrips, wantCertified, trips, certified)
				}
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d workers %d: request %d (%v %v) answered %q, sequential arm %q",
						seed, workers, i, reqs[i].u, reqs[i].us, got[i], want[i])
				}
			}
			if mirror != wantMirror {
				t.Fatalf("seed %d workers %d: mirror diverged\npipelined:\n%s\nsequential:\n%s", seed, workers, mirror, wantMirror)
			}
			if remote != wantSites {
				t.Fatalf("seed %d workers %d: merged site stores diverged\npipelined:\n%s\nsequential:\n%s", seed, workers, remote, wantSites)
			}
		}
	}
}

// TestSchedWaitSpanSaysWhy: a traced request that stalled carries, on
// its sched.wait span, what it waited for — here an emp insert behind a
// delete of its department, each writing into the key group the other
// reads.
func TestSchedWaitSpanSaysWhy(t *testing.T) {
	db := store.New()
	seedKeyStores(t, func(rel string, tup relation.Tuple) {
		if _, err := db.Insert(rel, tup); err != nil {
			t.Fatal(err)
		}
	})
	chk := core.New(db, core.Options{})
	if err := chk.AddConstraintSource("ref", refSrc); err != nil {
		t.Fatal(err)
	}
	spans := obs.NewSpanTracer("serve", obs.NewTraceStore(16), 1)
	gate := make(chan struct{})
	s := New(chk, Config{ApplyWorkers: 4, Spans: spans, workerGate: gate})
	var tasks []*task
	for _, u := range []store.Update{store.Del("dept", relation.Ints(7)), store.Ins("emp", relation.Ints(1, 7))} {
		tk := &task{op: opApply, client: "why", u: u, span: spans.StartRoot("req", obs.SpanContext{}),
			reply: make(chan taskResult, 1), enqueued: time.Now()}
		if err := s.submit(tk); err != nil {
			t.Fatal(err)
		}
		tasks = append(tasks, tk)
	}
	// The delete holds a worker at the gate until the insert has been
	// admitted behind it.
	for s.Stats().SchedTasks < 2 {
		time.Sleep(time.Millisecond)
	}
	close(gate)
	for _, tk := range tasks {
		if res := <-tk.reply; res.err != nil {
			t.Fatal(res.err)
		}
		tk.span.End()
	}
	s.Close()
	tr := spans.Store().Trace(tasks[1].span.Context().TraceID)
	if tr == nil {
		t.Fatal("no trace for the stalled request")
	}
	for _, sp := range tr.Spans {
		if sp.Name != "sched.wait" {
			continue
		}
		if sp.Attrs["conflicts"] != "1" || sp.Attrs["reason"] != "read of dept[0]" || sp.Attrs["value"] != "7" {
			t.Fatalf("sched.wait attributes = %v, want one conflict on dept[0] = 7", sp.Attrs)
		}
		return
	}
	t.Fatalf("stalled request has no sched.wait span: %+v", tr.Spans)
}

// TestPipelineChecksAreReads: a check writes nothing, so the scheduler
// holds it back for nothing but a write into what it reads. Many checks
// of one admitted and one rejected tuple, interleaved with applies to a
// relation no constraint mentions and to other tuples of the checked
// relation, are all admitted to the scheduler before any of them runs
// (the gate): none may stall — not behind another check of its tuple —
// the verdicts are the sequential arm's, and the checked relation's data
// version moves by the applies alone.
func TestPipelineChecksAreReads(t *testing.T) {
	const rounds, perRound = 40, 4
	admitted, rejected := store.Ins("emp", relation.Ints(1, 7)), store.Ins("emp", relation.Ints(2, 99))
	var want []bool
	for _, workers := range []int{1, 4, 8} {
		db := store.New()
		for rel, tup := range map[string]relation.Tuple{"dept": relation.Ints(7), "emp": relation.Ints(0, 7)} {
			if _, err := db.Insert(rel, tup); err != nil {
				t.Fatal(err)
			}
		}
		chk := core.New(db, core.Options{})
		if err := chk.AddConstraintSource("ref", refSrc); err != nil {
			t.Fatal(err)
		}
		version := db.DataVersion("emp")
		gate := make(chan struct{})
		if workers == 1 {
			close(gate) // a request submitted at one worker is decided before submit returns
		}
		s := New(chk, Config{ApplyWorkers: workers, QueueDepth: rounds * perRound, workerGate: gate})
		var tasks []*task
		for i := int64(0); i < rounds; i++ {
			for _, tk := range []*task{
				{op: opCheck, u: admitted},
				{op: opCheck, u: rejected},
				{op: opApply, u: store.Ins("log", relation.Ints(i))},
				{op: opApply, u: store.Ins("emp", relation.Ints(100+i, 7))},
			} {
				tk.client, tk.reply, tk.enqueued = "reads", make(chan taskResult, 1), time.Now()
				if err := s.submit(tk); err != nil {
					t.Fatal(err)
				}
				tasks = append(tasks, tk)
			}
		}
		if workers > 1 {
			for s.Stats().SchedTasks < int64(len(tasks)) {
				time.Sleep(time.Millisecond)
			}
			close(gate)
		}
		got := make([]bool, len(tasks))
		for i, tk := range tasks {
			res := <-tk.reply
			if res.err != nil {
				t.Fatal(res.err)
			}
			got[i] = res.rep.Applied
		}
		stalls := s.Stats().SchedConflictStalls
		s.Close()
		if workers == 1 {
			want = got
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers %d: task %d (%v) answered applied=%v, sequential arm %v", workers, i, tasks[i].u, got[i], want[i])
			}
		}
		if stalls != 0 {
			t.Errorf("workers %d: %d tasks stalled; checks and the applies beside them conflict with nothing", workers, stalls)
		}
		if moved := db.DataVersion("emp") - version; moved != rounds {
			t.Errorf("workers %d: emp's data version moved by %d over %d applied inserts and %d checks", workers, moved, rounds, 2*rounds)
		}
		if db.Contains("emp", admitted.Tuple) || db.Contains("emp", rejected.Tuple) {
			t.Errorf("workers %d: a checked tuple is in the store", workers)
		}
	}
}

// TestPipelineRecursiveChecksOverlap: checks of inserts into one relation
// conflict with nothing, so under the scheduler they overlap on the kept
// fixpoint that decides a recursive constraint. Each must see only what
// its own tuple derives — edge(30,40) and edge(40,30) are admissible
// alone and close a cycle only together — while the edge applies between
// them, which the checks' whole reads of edge do order, extend the chain
// the closing check is rejected on. Verdicts are the sequential arm's.
func TestPipelineRecursiveChecksOverlap(t *testing.T) {
	const n, rounds = 16, 60
	var want []bool
	for _, workers := range []int{1, 4, 8} {
		db := store.New()
		for i := int64(0); i < n-1; i++ {
			if _, err := db.Insert("edge", relation.Ints(i, i+1)); err != nil {
				t.Fatal(err)
			}
		}
		chk := core.New(db, core.Options{})
		if err := chk.AddConstraintSource("acyclic",
			"reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- reach(X,Z) & edge(Z,Y).\npanic :- reach(X,X)."); err != nil {
			t.Fatal(err)
		}
		gate := make(chan struct{})
		if workers == 1 {
			close(gate) // a request submitted at one worker is decided before submit returns
		}
		s := New(chk, Config{ApplyWorkers: workers, QueueDepth: rounds * 8, workerGate: gate})
		var tasks []*task
		for i := int64(0); i < rounds; i++ {
			round := []*task{
				{op: opCheck, u: store.Ins("edge", relation.Ints(30, 40))},
				{op: opCheck, u: store.Ins("edge", relation.Ints(40, 30))},
				{op: opCheck, u: store.Ins("edge", relation.Ints(n-1, 0))},
				{op: opCheck, u: store.Ins("edge", relation.Ints(3, 9))},
				{op: opCheck, u: store.Ins("edge", relation.Ints(40, 30))},
				{op: opCheck, u: store.Ins("edge", relation.Ints(30, 40))},
				{op: opApply, u: store.Ins("log", relation.Ints(i))},
			}
			if i%10 == 9 { // one more link, and the edge that would close it
				round = append(round, &task{op: opApply, u: store.Ins("edge", relation.Ints(n-1+i/10, n+i/10))},
					&task{op: opCheck, u: store.Ins("edge", relation.Ints(n+i/10, 0))})
			}
			for _, tk := range round {
				tk.client, tk.reply, tk.enqueued = "overlap", make(chan taskResult, 1), time.Now()
				if err := s.submit(tk); err != nil {
					t.Fatal(err)
				}
				tasks = append(tasks, tk)
			}
		}
		if workers > 1 {
			for s.Stats().SchedTasks < int64(len(tasks)) {
				time.Sleep(time.Millisecond)
			}
			close(gate)
		}
		got := make([]bool, len(tasks))
		for i, tk := range tasks {
			res := <-tk.reply
			if res.err != nil {
				t.Fatal(res.err)
			}
			got[i] = res.rep.Applied
		}
		s.Close()
		if workers == 1 {
			want = got
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers %d: task %d (%v) answered applied=%v, sequential arm %v", workers, i, tasks[i].u, got[i], want[i])
			}
		}
		if st := chk.Stats(); st.FixpointHits == 0 {
			t.Fatalf("workers %d: no decision used a kept fixpoint: %+v", workers, st)
		}
	}
}
