package serve

import (
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/netdist"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/store"
)

// TestScrapesWhileDeciding: the registry is scraped — WritePrometheus and
// Snapshot — from several goroutines while a server at four apply workers
// decides over a coordinator on Loopback sites, one of them instrumented.
// Every counter a scraper reads never goes back, and once the server is
// closed each family reads what its layer's accounting says.
func TestScrapesWhileDeciding(t *testing.T) {
	reg := obs.NewRegistry()
	siteDB := store.New()
	for _, d := range []string{"d0", "d1"} {
		if _, err := siteDB.Insert("dept", relation.Strs(d)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := siteDB.Insert("r", relation.Ints(500)); err != nil {
		t.Fatal(err)
	}
	site := netdist.NewServer(siteDB, []string{"dept", "r"})
	site.Instrument(reg)
	lb := netdist.NewLoopback()
	lb.AddSite("s", site)
	co, err := netdist.New(store.New(), []netdist.SiteSpec{{Site: "s", Relations: []string{"dept", "r"}}}, lb, netdist.Options{
		Checker:      core.Options{LocalRelations: []string{"emp", "l"}, Metrics: reg},
		Timeout:      5 * time.Second,
		ApplyWorkers: 4,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{"ref": refSrc, "fi": fiSrc} {
		if err := co.Checker.AddConstraintSource(name, src); err != nil {
			t.Fatal(err)
		}
	}
	s := New(netdist.ServeBackend{Co: co}, Config{ApplyWorkers: 4, Metrics: reg})

	const clients, perClient = 4, 40
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for g := 0; g < 3; g++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			last := map[string]int64{}
			for {
				select {
				case <-stop:
					return
				default:
				}
				reg.WritePrometheus(io.Discard)
				for k, v := range reg.Snapshot() {
					n, ok := v.(int64)
					if !ok || !strings.Contains(k, "_total") {
						continue
					}
					if n < last[k] {
						t.Errorf("%s went back from %d to %d", k, last[k], n)
					}
					last[k] = n
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int64) {
			defer wg.Done()
			for i := int64(0); i < perClient; i++ {
				n := c*1000 + i
				var err error
				switch i % 4 {
				case 0:
					_, err = s.Apply("c", store.Ins("emp", relation.TupleOf(ast.Int(n), ast.Str([]string{"d0", "d1", "d9"}[i%3]))))
				case 1:
					_, err = s.Check("c", store.Ins("l", relation.Ints(n, n+10)))
				case 2:
					_, err = s.Apply("c", store.Ins("l", relation.Ints(-n-20, -n-10)))
				default:
					_, err = s.Batch("c", []store.Update{store.Ins("l", relation.Ints(n+5000, n+5001))}, true)
				}
				if err != nil {
					t.Error(err)
				}
			}
		}(int64(c))
	}
	wg.Wait()
	s.Close()
	close(stop)
	scrapers.Wait()

	snap := reg.Snapshot()
	sum := func(prefix string) int64 {
		var total int64
		for k, v := range snap {
			if n, ok := v.(int64); ok && strings.HasPrefix(k, prefix) {
				total += n
			}
		}
		return total
	}
	cs, ss, sv, st := co.Checker.Stats(), s.Stats(), site.Stats(), co.Stats()
	var siteReqs int64
	for _, n := range sv.Requests {
		siteReqs += n
	}
	for _, c := range []struct {
		series    string
		got, want int64
	}{
		{"cc_serve_requests_total", sum("cc_serve_requests_total{"), clients * perClient},
		{"cc_checker_updates_total", sum("cc_checker_updates_total"), int64(cs.Updates)},
		{"cc_checker_rejected_total", sum("cc_checker_rejected_total"), int64(cs.Rejected)},
		{"cc_checker_decisions_total", sum("cc_checker_decisions_total{"), int64(cs.Decisions)},
		{"cc_sched_tasks_total", sum(`cc_sched_tasks_total{layer="serve"}`), ss.SchedTasks},
		{"cc_sched_conflict_stalls_total", sum(`cc_sched_conflict_stalls_total{layer="serve"`), ss.SchedConflictStalls},
		{"cc_sched_inflight", sum(`cc_sched_inflight{layer="serve"}`), 0},
		{"cc_sched_workers_busy", sum(`cc_sched_workers_busy{layer="serve"}`), 0},
		{"cc_serve_queue_depth", sum("cc_serve_queue_depth"), 0},
		{"cc_coord_wire_tuples_total", sum("cc_coord_wire_tuples_total"), st.SyncTuples + st.WireTuples},
		{"cc_coord_rpc_total", sum("cc_coord_rpc_total{"), int64(st.SyncTrips + st.RoundTrips)},
		{"cc_site_requests_total", sum("cc_site_requests_total{"), siteReqs},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, its layer's accounting says %d", c.series, c.got, c.want)
		}
	}
	if cs.Updates < clients*perClient || ss.SchedTasks == 0 {
		t.Errorf("the checker decided %d updates in %d scheduler tasks, want at least %d in some", cs.Updates, ss.SchedTasks, clients*perClient)
	}
}
