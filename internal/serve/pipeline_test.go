package serve

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
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
