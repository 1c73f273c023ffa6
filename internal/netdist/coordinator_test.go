package netdist

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/parser"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

func strv(s string) ast.Value { return ast.Str(s) }
func intv(n int64) ast.Value  { return ast.Int(n) }

// fiConstraint forbids a point of r inside an interval of l.
const fiConstraint = "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."

// lrCoordinator builds a coordinator holding the intervals L locally and
// the points R at one loopback site, with fiConstraint loaded. opts names
// l local.
func lrCoordinator(t *testing.T, L, R []relation.Tuple, opts core.Options) (*Coordinator, *Loopback) {
	t.Helper()
	local, remote := store.New(), store.New()
	for _, tu := range L {
		if _, err := local.Insert("l", tu); err != nil {
			t.Fatal(err)
		}
	}
	for _, tu := range R {
		if _, err := remote.Insert("r", tu); err != nil {
			t.Fatal(err)
		}
	}
	lb := NewLoopback()
	lb.AddSite("siteR", NewServer(remote, []string{"r"}))
	co, err := New(local, []SiteSpec{{Site: "siteR", Relations: []string{"r"}}}, lb,
		Options{Checker: opts, Timeout: time.Second, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Checker.AddConstraintSource("fi", fiConstraint); err != nil {
		t.Fatal(err)
	}
	return co, lb
}

// d1Fixture builds the D1 experiment twice: once as an embedded checker
// over one store holding everything, once as a Coordinator whose remote
// relation r lives behind a loopback site.
func d1Fixture(t *testing.T, density, nUpdates int, seed int64) (*core.Checker, *Coordinator, *Loopback, []store.Update) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	L := workload.Intervals(rng, density, 20, 200)
	updates := workload.IntervalInserts(rand.New(rand.NewSource(seed+1)), nUpdates, 10, 200, "l")
	var R []relation.Tuple
	for i := int64(0); i < 50; i++ {
		R = append(R, relation.Ints(10000+i))
	}
	// Both arms disable residual dispatch: the fixture pins the staged
	// pipeline's phases, whose global phase is the one remote read.
	opts := core.Options{LocalRelations: []string{"l"}, DisableResidual: true}
	full := store.New()
	for _, tu := range L {
		if _, err := full.Insert("l", tu); err != nil {
			t.Fatal(err)
		}
	}
	for _, tu := range R {
		if _, err := full.Insert("r", tu); err != nil {
			t.Fatal(err)
		}
	}
	embedded := core.New(full, opts)
	if err := embedded.AddConstraintSource("fi", fiConstraint); err != nil {
		t.Fatal(err)
	}
	co, lb := lrCoordinator(t, L, R, opts)
	return embedded, co, lb, updates
}

// renderReport gives a canonical text form of a core.Report for
// byte-identical comparison (Values hold *big.Rat, so direct
// reflect.DeepEqual would compare pointers' targets — fine — but the
// string form also makes failures readable).
func renderReport(rep core.Report) string {
	return fmt.Sprintf("%s applied=%v decisions=%v", rep.Update, rep.Applied, rep.Decisions)
}

// TestCoordinatorMatchesEmbeddedOnD1: over the wire the coordinator
// reports what an embedded checker over the merged store reports, update
// by update, ends with the same relations, and decides as often in each
// phase; and it makes one round trip per update it cannot decide locally.
func TestCoordinatorMatchesEmbeddedOnD1(t *testing.T) {
	for _, density := range []int{10, 80} {
		embedded, co, _, updates := d1Fixture(t, density, 60, 42)
		for i, u := range updates {
			want, err := embedded.Apply(u)
			if err != nil {
				t.Fatal(err)
			}
			got, err := co.Apply(u)
			if err != nil {
				t.Fatal(err)
			}
			if renderReport(got) != renderReport(want) {
				t.Fatalf("density %d, update %d: coordinator diverged\n got: %s\nwant: %s",
					density, i, renderReport(got), renderReport(want))
			}
		}
		// The two stores agree relation by relation.
		full, mirror := embedded.DB(), co.Checker.DB()
		for _, name := range full.Names() {
			if mr := mirror.Relation(name); mr == nil || !full.Relation(name).Equal(mr) {
				t.Errorf("density %d: relation %s diverged", density, name)
			}
		}
		cst, est := co.Stats(), embedded.Stats()
		if !reflect.DeepEqual(cst.ByPhase, est.ByPhase) {
			t.Errorf("density %d: phase histograms diverged: %v vs %v", density, cst.ByPhase, est.ByPhase)
		}
		// A plan counts nothing: the decision that finishes it counts the
		// entries it is served, once, as an embedded Apply does.
		if kst := co.Checker.Stats(); kst.CacheHits != est.CacheHits || kst.ResidualHits != est.ResidualHits {
			t.Errorf("density %d: cache hits %d, residual hits %d; embedded %d, %d",
				density, kst.CacheHits, kst.ResidualHits, est.CacheHits, est.ResidualHits)
		}
		if cst.RoundTrips != cst.Updates-cst.DecidedLocally || cst.RoundTrips != cst.ByPhase[core.PhaseGlobal] {
			t.Errorf("density %d: %d round trips for %d updates, %d decided locally, %d global decisions",
				density, cst.RoundTrips, cst.Updates, cst.DecidedLocally, cst.ByPhase[core.PhaseGlobal])
		}
	}
}

// TestLocalCertificationAvoidsRemote: inserts the local intervals cover
// are certified without asking the site; an uncovered one asks it once.
func TestLocalCertificationAvoidsRemote(t *testing.T) {
	var R []relation.Tuple
	for i := int64(200); i < 210; i++ {
		R = append(R, relation.Ints(i))
	}
	// The assertions pin the staged pipeline's locality model: residual
	// dispatch would decide covered insertions too, but by probing r.
	co, _ := lrCoordinator(t, []relation.Tuple{relation.Ints(0, 50), relation.Ints(40, 100)}, R,
		core.Options{LocalRelations: []string{"l"}, DisableResidual: true})
	for _, u := range []store.Update{
		store.Ins("l", relation.Ints(5, 20)),
		store.Ins("l", relation.Ints(10, 60)),
		store.Ins("l", relation.Ints(45, 95)),
	} {
		rep, err := co.Apply(u)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Applied {
			t.Fatalf("covered insertion %v rejected", u)
		}
	}
	st := co.Stats()
	if st.RoundTrips != 0 || st.WireTuples != 0 || st.DecidedLocally != 3 {
		t.Errorf("locally certifiable stream: %d round trips, %d tuples, %d decided locally, want 0, 0, 3",
			st.RoundTrips, st.WireTuples, st.DecidedLocally)
	}
	// An uncovered insertion asks the site, though r has no point in it.
	rep, err := co.Apply(store.Ins("l", relation.Ints(150, 160)))
	if err != nil || !rep.Applied {
		t.Fatalf("uncovered insertion: %+v err=%v", rep, err)
	}
	if st = co.Stats(); st.RoundTrips != 1 || st.DecidedLocally != 3 {
		t.Errorf("uncovered insertion: %d round trips, %d decided locally, want 1 and 3", st.RoundTrips, st.DecidedLocally)
	}
	// The report lists phases in pipeline order, the same on every render,
	// and Stats hands out copies of its maps.
	out := co.Report()
	local, global := strings.Index(out, core.PhaseLocalData.String()), strings.Index(out, core.PhaseGlobal.String())
	if local < 0 || global < local || co.Report() != out {
		t.Errorf("report:\n%s", out)
	}
	st.ByPhase[core.PhaseGlobal] = 999
	if co.Stats().ByPhase[core.PhaseGlobal] != 1 {
		t.Error("Stats leaked its live ByPhase map")
	}
}

// TestAblationLocalPhase: with the local-data phase disabled, the same
// covered stream decides fewer updates locally and pays more round trips
// — the measurable value of Sections 5–6.
func TestAblationLocalPhase(t *testing.T) {
	var R []relation.Tuple
	// Remote points far outside the spread, so no update violates.
	for i := int64(0); i < 20; i++ {
		R = append(R, relation.Ints(1000+i))
	}
	run := func(disableLocal bool) Stats {
		co, _ := lrCoordinator(t, workload.Intervals(rand.New(rand.NewSource(1)), 40, 20, 100), R,
			core.Options{LocalRelations: []string{"l"}, DisableLocalData: disableLocal, DisableResidual: true})
		for _, u := range workload.IntervalInserts(rand.New(rand.NewSource(2)), 30, 10, 100, "l") {
			if _, err := co.Apply(u); err != nil {
				t.Fatal(err)
			}
		}
		return co.Stats()
	}
	with, without := run(false), run(true)
	if with.DecidedLocally <= without.DecidedLocally {
		t.Errorf("local phase gained nothing: with=%d without=%d", with.DecidedLocally, without.DecidedLocally)
	}
	if with.RoundTrips >= without.RoundTrips {
		t.Errorf("local phase saved no round trip: with=%d without=%d", with.RoundTrips, without.RoundTrips)
	}
}

// TestEmployeeWorkloadEndToEnd: the employee workload with dept and
// salRange at a site rejects its violating updates and leaves a database
// every constraint holds on.
func TestEmployeeWorkloadEndToEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	full := store.New()
	if err := workload.EmployeeDB(rng, full, 4, 30); err != nil {
		t.Fatal(err)
	}
	local, remote := store.New(), store.New()
	for _, name := range full.Names() {
		db := local
		if name != "emp" {
			db = remote
		}
		for _, tu := range full.Tuples(name) {
			if _, err := db.Insert(name, tu); err != nil {
				t.Fatal(err)
			}
		}
	}
	lb := NewLoopback()
	lb.AddSite("site", NewServer(remote, nil))
	co, err := New(local, []SiteSpec{{Site: "site", Relations: remote.Names()}}, lb,
		Options{Checker: core.Options{LocalRelations: []string{"emp"}}})
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range workload.StandardEmployeeConstraints() {
		if err := co.Checker.AddConstraintSource(name, src); err != nil {
			t.Fatal(err)
		}
	}
	for _, u := range workload.EmployeeUpdates(rng, 60, 4, 0.2) {
		if _, err := co.Apply(u); err != nil {
			t.Fatal(err)
		}
	}
	st := co.Stats()
	if st.Updates != 60 || st.Rejected == 0 {
		t.Errorf("updates = %d, rejected = %d; want 60 and some", st.Updates, st.Rejected)
	}
	if st.RoundTrips == 0 {
		t.Error("no update asked the site")
	}
	for name, src := range workload.StandardEmployeeConstraints() {
		bad, err := eval.PanicHolds(parser.MustParseProgram(src), co.Checker.DB())
		if err != nil {
			t.Fatal(err)
		}
		if bad {
			t.Errorf("constraint %s violated after the stream", name)
		}
	}
	if remote.Dump() == "" || co.Report() == "" {
		t.Error("empty site or report")
	}
}

func TestCoordinatorRemoteWritePropagation(t *testing.T) {
	remote := store.New()
	if _, err := remote.Insert("dept", relation.Strs("toy")); err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback()
	lb.AddSite("s1", NewServer(remote, []string{"dept"}))
	local := store.New()
	if _, err := local.Insert("emp", relation.TupleOf(strv("ann"), strv("toy"), intv(50))); err != nil {
		t.Fatal(err)
	}
	co, err := New(local, []SiteSpec{{Site: "s1", Relations: []string{"dept"}}}, lb,
		Options{Checker: core.Options{LocalRelations: []string{"emp"}}, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Checker.AddConstraintSource("ri", "panic :- emp(E,D,S) & not dept(D)."); err != nil {
		t.Fatal(err)
	}
	rep, err := co.Apply(store.Ins("dept", relation.Strs("shoe")))
	if err != nil || !rep.Applied {
		t.Fatalf("insert into remote dept: rep=%+v err=%v", rep, err)
	}
	if !remote.Contains("dept", relation.Strs("shoe")) {
		t.Error("remote write was not propagated to the owning site")
	}
	// Deleting a referenced department is rejected locally and must not
	// reach the site.
	rep, err = co.Apply(store.Del("dept", relation.Strs("toy")))
	if err != nil || rep.Applied {
		t.Fatalf("delete of referenced dept: rep=%+v err=%v", rep, err)
	}
	if !remote.Contains("dept", relation.Strs("toy")) {
		t.Error("rejected delete reached the remote site")
	}
}

func TestCoordinatorApplyBatchRollsBackAcrossSites(t *testing.T) {
	remote := store.New()
	if _, err := remote.Insert("dept", relation.Strs("toy")); err != nil {
		t.Fatal(err)
	}
	lb := NewLoopback()
	lb.AddSite("s1", NewServer(remote, []string{"dept"}))
	local := store.New()
	co, err := New(local, []SiteSpec{{Site: "s1", Relations: []string{"dept"}}}, lb,
		Options{Checker: core.Options{LocalRelations: []string{"emp"}}, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Checker.AddConstraintSource("ri", "panic :- emp(E,D,S) & not dept(D)."); err != nil {
		t.Fatal(err)
	}
	br, err := co.ApplyBatch([]store.Update{
		store.Ins("dept", relation.Strs("shoe")),
		store.Ins("emp", relation.TupleOf(strv("bob"), strv("shoe"), intv(60))),
		store.Ins("emp", relation.TupleOf(strv("eve"), strv("ghost"), intv(70))), // violates
	})
	if err != nil {
		t.Fatal(err)
	}
	if br.Applied || br.FailedAt != 2 {
		t.Fatalf("batch: %+v", br)
	}
	if remote.Contains("dept", relation.Strs("shoe")) {
		t.Error("the rejected batch wrote the remote insert")
	}
	if co.Checker.DB().Contains("emp", relation.TupleOf(strv("bob"), strv("shoe"), intv(60))) {
		t.Error("the rejected batch wrote a local insert")
	}
}

// Apply and Check are one decide: a rejected check counts like a rejected
// apply — on the coordinator and on its checker alike — and, being a
// check, sends no apply frame and leaves the mirror as it was: contents,
// relation names, and the data version of every relation the decision did
// not have to refresh.
func TestCoordinatorCheckCountsLikeApplyAndWritesNothing(t *testing.T) {
	remote := store.New()
	if _, err := remote.Insert("dept", relation.Strs("toy")); err != nil {
		t.Fatal(err)
	}
	site := NewServer(remote, []string{"dept"})
	lb := NewLoopback()
	lb.AddSite("s1", site)
	local := store.New()
	if _, err := local.Insert("emp", relation.Strs("ann", "toy")); err != nil {
		t.Fatal(err)
	}
	co, err := New(local, []SiteSpec{{Site: "s1", Relations: []string{"dept"}}}, lb,
		Options{Checker: core.Options{LocalRelations: []string{"emp"}}, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Checker.AddConstraintSource("ri", "panic :- emp(E,D) & not dept(D)."); err != nil {
		t.Fatal(err)
	}
	backend := ServeBackend{Co: co}
	rejected := 0
	for _, c := range []struct {
		u     store.Update
		admit bool
	}{
		{store.Ins("emp", relation.Strs("eve", "ghost")), false},
		{store.Del("dept", relation.Strs("toy")), false}, // on the remote relation
		{store.Ins("ghost", relation.Strs("boo")), true}, // on a relation nobody has
		{store.Ins("dept", relation.Strs("shoe")), true},
	} {
		names, empVersion, contents := local.Names(), local.DataVersion("emp"), local.Dump()
		rep, err := backend.Check(c.u)
		if err != nil || rep.Applied != c.admit {
			t.Fatalf("check %v: %+v err=%v, want applied=%v", c.u, rep, err, c.admit)
		}
		if !c.admit {
			rejected++
		}
		if got, want := co.Stats().Rejected, co.Checker.Stats().Rejected; got != rejected || want != rejected {
			t.Fatalf("after check %v: coordinator counts %d rejections, its checker %d, want %d", c.u, got, want, rejected)
		}
		if !reflect.DeepEqual(local.Names(), names) || local.DataVersion("emp") != empVersion || local.Dump() != contents {
			t.Fatalf("check %v wrote the mirror:\n%s\nwas:\n%s", c.u, local.Dump(), contents)
		}
	}
	if n := site.Stats().Requests[OpApply]; n != 0 {
		t.Fatalf("checks sent %d apply frames", n)
	}
	if got := remote.Dump(); got != "dept(toy).\n" {
		t.Fatalf("checks wrote the site:\n%s", got)
	}
}

func TestCoordinatorRejectsConflictingSpecs(t *testing.T) {
	lb := NewLoopback()
	lb.AddSite("a", NewServer(store.New(), []string{"r"}))
	lb.AddSite("b", NewServer(store.New(), []string{"r"}))
	if _, err := New(store.New(), []SiteSpec{{Site: "a", Relations: []string{"r"}}, {Site: "b", Relations: []string{"r"}}}, lb, Options{}); err == nil {
		t.Error("relation claimed by two sites accepted")
	}
	if _, err := New(store.New(), []SiteSpec{{Site: "a", Relations: []string{"r"}}}, lb,
		Options{Checker: core.Options{LocalRelations: []string{"r"}}}); err == nil {
		t.Error("relation both local and remote accepted")
	}
}

func TestCoordinatorInitialSyncFailure(t *testing.T) {
	lb := NewLoopback()
	lb.AddSite("s1", NewServer(store.New(), []string{"r"}))
	lb.Partition("s1")
	_, err := New(store.New(), []SiteSpec{{Site: "s1", Relations: []string{"r"}}}, lb,
		Options{Retries: -1, Backoff: time.Millisecond})
	if !errors.Is(err, ErrSiteUnavailable) {
		t.Fatalf("initial sync against a partitioned site: err=%v", err)
	}
}

// TestSyncNetTimeBookedApart: the initial sync is booked apart in every
// wire counter, its wait on the wire included, so a coordinator that has
// decided nothing has spent no NetTime however slow its sites are.
func TestSyncNetTimeBookedApart(t *testing.T) {
	lb := NewLoopback()
	lb.AddSite("s1", NewServer(store.New(), []string{"r"}))
	lb.SetLatency("s1", 2*time.Millisecond)
	co, err := New(store.New(), []SiteSpec{{Site: "s1", Relations: []string{"r"}}}, lb, Options{Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if st := co.Stats(); st.SyncTrips != 1 || st.RoundTrips != 0 || st.NetTime != 0 {
		t.Fatalf("after the sync: %d sync trips, %d round trips, net time %v; want 1, 0, 0", st.SyncTrips, st.RoundTrips, st.NetTime)
	}
}

func TestParseSiteSpec(t *testing.T) {
	spec, err := ParseSiteSpec("127.0.0.1:7070=r, s")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Site != "127.0.0.1:7070" || !reflect.DeepEqual(spec.Relations, []string{"r", "s"}) {
		t.Errorf("spec = %+v", spec)
	}
	for _, bad := range []string{"", "hostonly", "=r", "h:1=", "h:1=r,,s"} {
		if _, err := ParseSiteSpec(bad); err == nil {
			t.Errorf("ParseSiteSpec(%q) accepted", bad)
		}
	}
}
