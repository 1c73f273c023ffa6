// Distributed: the paper's motivating deployment (Section 1). A local
// site owns the interval relation l and receives the update stream; the
// job relation r lives at a remote site where every access costs a round
// trip. The example runs the same stream through the netdist coordinator,
// with r at an in-process site, under the staged partial-information
// pipeline and under the naive always-evaluate strategy, and reports the
// remote traffic each one generates.
//
//	go run ./examples/distributed
package main

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/netdist"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

const (
	nLocal   = 25  // pre-existing local windows
	nRemote  = 300 // remote job times (outside the window spread)
	nUpdates = 60
)

func main() {
	if err := report(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// arm runs the window stream through a coordinator whose r lives at an
// in-process site, naive or staged, and returns the coordinator's
// statistics and report.
func arm(naive bool) (netdist.Stats, string, error) {
	fail := func(err error) (netdist.Stats, string, error) { return netdist.Stats{}, "", err }
	rng := rand.New(rand.NewSource(42))
	local, remote := store.New(), store.New()
	for _, t := range workload.Intervals(rng, nLocal, 25, 300) {
		if _, err := local.Insert("l", t); err != nil {
			return fail(err)
		}
	}
	for i := 0; i < nRemote; i++ {
		if _, err := remote.Insert("r", relation.Ints(5000+rng.Int63n(1000))); err != nil {
			return fail(err)
		}
	}
	opts := core.Options{LocalRelations: []string{"l"}}
	if naive {
		opts.DisableUpdateOnly = true
		opts.DisableLocalData = true
	}
	lb := netdist.NewLoopback()
	lb.AddSite("jobs", netdist.NewServer(remote, []string{"r"}))
	co, err := netdist.New(local, []netdist.SiteSpec{{Site: "jobs", Relations: []string{"r"}}}, lb,
		netdist.Options{Checker: opts})
	if err != nil {
		return fail(err)
	}
	if err := co.Checker.AddConstraintSource("no-job-in-window",
		"panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
		return fail(err)
	}
	for _, u := range workload.IntervalInserts(rng, nUpdates, 40, 300, "l") {
		if _, err := co.Apply(u); err != nil {
			return fail(err)
		}
	}
	return co.Stats(), co.Report(), nil
}

// report runs both arms and writes their reports and the remote cost the
// staged pipeline saved.
func report(w io.Writer) error {
	fmt.Fprintf(w, "scenario: %d local windows, %d remote jobs, %d window insertions\n",
		nLocal, nRemote, nUpdates)
	fmt.Fprintln(w, "cost model: remote round trip = 100 units, remote tuple = 1 unit")

	staged, stagedReport, err := arm(false)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n--- staged pipeline (Sections 3-6) ---")
	fmt.Fprint(w, stagedReport)

	naive, naiveReport, err := arm(true)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "\n--- naive strategy (always evaluate globally) ---")
	fmt.Fprint(w, naiveReport)

	s, n := experiments.DefaultCost.Price(staged), experiments.DefaultCost.Price(naive)
	if n > 0 {
		fmt.Fprintf(w, "\nremote cost saved by partial-information checking: %.0f%% (%.0f -> %.0f)\n",
			100*(n-s)/n, n, s)
	}
	return nil
}
