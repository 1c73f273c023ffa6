package netdist

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

func strv(s string) ast.Value { return ast.Str(s) }
func intv(n int64) ast.Value  { return ast.Int(n) }

// d1Fixture builds the D1 experiment twice: once as the in-process
// dist.System over one store holding everything, once as a netdist
// Coordinator whose remote relation r lives behind a loopback site.
func d1Fixture(t *testing.T, density, nUpdates int, seed int64) (*dist.System, *Coordinator, *Loopback, []store.Update) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	L := workload.Intervals(rng, density, 20, 200)
	updates := workload.IntervalInserts(rand.New(rand.NewSource(seed+1)), nUpdates, 10, 200, "l")

	// Arm 1: everything in one store, remote access simulated by cost.
	full := store.New()
	for _, tu := range L {
		if _, err := full.Insert("l", tu); err != nil {
			t.Fatal(err)
		}
	}
	for i := int64(0); i < 50; i++ {
		if _, err := full.Insert("r", relation.Ints(10000+i)); err != nil {
			t.Fatal(err)
		}
	}
	// Both arms disable residual dispatch: the fixture compares the cost
	// model's remote-trip prediction (driven by the staged pipeline's
	// global phase) against measured scan requests, and Coordinator
	// prefetch follows the residual-unaware core.Plan.
	sys := dist.NewWithOptions(full, core.Options{LocalRelations: []string{"l"}, DisableResidual: true}, dist.DefaultCost)
	if err := sys.Checker.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
		t.Fatal(err)
	}

	// Arm 2: r lives on a site behind the loopback transport.
	remote := store.New()
	for i := int64(0); i < 50; i++ {
		if _, err := remote.Insert("r", relation.Ints(10000+i)); err != nil {
			t.Fatal(err)
		}
	}
	lb := NewLoopback()
	lb.AddSite("siteR", NewServer(remote, []string{"r"}))
	local := store.New()
	for _, tu := range L {
		if _, err := local.Insert("l", tu); err != nil {
			t.Fatal(err)
		}
	}
	co, err := New(local, []SiteSpec{{Site: "siteR", Relations: []string{"r"}}}, lb,
		Options{Checker: core.Options{LocalRelations: []string{"l"}, DisableResidual: true}, Timeout: time.Second, Backoff: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Checker.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
		t.Fatal(err)
	}
	return sys, co, lb, updates
}

// renderReport gives a canonical text form of a core.Report for
// byte-identical comparison (Values hold *big.Rat, so direct
// reflect.DeepEqual would compare pointers' targets — fine — but the
// string form also makes failures readable).
func renderReport(rep core.Report) string {
	return fmt.Sprintf("%s applied=%v decisions=%v", rep.Update, rep.Applied, rep.Decisions)
}

func TestCoordinatorMatchesDistOnD1(t *testing.T) {
	for _, density := range []int{10, 80} {
		sys, co, _, updates := d1Fixture(t, density, 60, 42)
		for i, u := range updates {
			want, err := sys.Apply(u)
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
		full, mirror := sys.Checker.DB(), co.Checker.DB()
		for _, name := range full.Names() {
			if mr := mirror.Relation(name); mr == nil || !full.Relation(name).Equal(mr) {
				t.Errorf("density %d: relation %s diverged", density, name)
			}
		}
		// The cost model's remote-trip prediction matches what actually
		// crossed the wire: one scan request per global-phase update
		// (plus none for locally decided ones).
		dst, cst := sys.Stats(), co.Stats()
		if cst.RoundTrips != dst.RemoteTrips {
			t.Errorf("density %d: %d measured round trips, cost model predicted %d",
				density, cst.RoundTrips, dst.RemoteTrips)
		}
		if cst.DecidedLocally != dst.DecidedLocally {
			t.Errorf("density %d: decided-locally %d (net) vs %d (dist)",
				density, cst.DecidedLocally, dst.DecidedLocally)
		}
		if !reflect.DeepEqual(cst.ByPhase, dst.ByPhase) {
			t.Errorf("density %d: phase histograms diverged: %v vs %v", density, cst.ByPhase, dst.ByPhase)
		}
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
