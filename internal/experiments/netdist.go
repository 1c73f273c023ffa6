package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/netdist"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// CostModel prices remote access in abstract cost units.
type CostModel struct {
	// RemoteLatency is charged once per round trip to a site.
	RemoteLatency float64
	// RemotePerTuple is charged per tuple a site ships back.
	RemotePerTuple float64
}

// DefaultCost is a conventional wide-area setting: a round trip costs as
// much as shipping 100 tuples.
var DefaultCost = CostModel{RemoteLatency: 100, RemotePerTuple: 1}

// Price is the cost of the round trips and wire tuples a coordinator
// counted after its initial sync.
func (c CostModel) Price(st netdist.Stats) float64 {
	return float64(st.RoundTrips)*c.RemoteLatency + float64(st.WireTuples)*c.RemotePerTuple
}

// d1Constraint is D1's forbidden-interval constraint: no point of r lies
// in an interval of l.
const d1Constraint = "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."

// d1Points are D1's remote points, far outside the intervals' spread, so
// no update of the stream violates the constraint.
func d1Points() []relation.Tuple {
	out := make([]relation.Tuple, 50)
	for i := range out {
		out[i] = relation.Ints(10000 + int64(i))
	}
	return out
}

// d1Coordinator builds D1's deployment: the intervals L in the
// coordinator's store, r at one in-process site behind a loopback
// transport that delays every request by latency (none at 0), and the
// constraint loaded. opts.LocalRelations must name l.
func d1Coordinator(L []relation.Tuple, opts core.Options, latency time.Duration) (*netdist.Coordinator, error) {
	local, remote := store.New(), store.New()
	if err := insertAll(local, "l", L); err != nil {
		return nil, err
	}
	if err := insertAll(remote, "r", d1Points()); err != nil {
		return nil, err
	}
	lb := netdist.NewLoopback()
	lb.AddSite("siteR", netdist.NewServer(remote, []string{"r"}))
	lb.SetLatency("siteR", latency)
	co, err := netdist.New(local, []netdist.SiteSpec{{Site: "siteR", Relations: []string{"r"}}}, lb,
		netdist.Options{Checker: opts})
	if err != nil {
		return nil, err
	}
	return co, co.Checker.AddConstraintSource("fi", d1Constraint)
}

func insertAll(db *store.Store, rel string, ts []relation.Tuple) error {
	for _, tu := range ts {
		if _, err := db.Insert(rel, tu); err != nil {
			return err
		}
	}
	return nil
}

// ExpNetDistributed (D-net) replays the D1 workload over the wire: the
// remote relation r lives behind a netdist site reached through the
// loopback transport with injected latency. The table shows the
// coordinator's round trips, wire tuples and wall-clock network time, and
// whether every verdict agrees with an embedded checker over one store
// holding l and r.
func ExpNetDistributed(densities []int, updates int, latency time.Duration, seed int64) (Table, error) {
	t := Table{
		Title:   "D-net — D1 workload over the wire (loopback transport, injected latency " + latency.String() + ")",
		Columns: []string{"|L|", "decided-locally", "trips (measured)", "wire tuples", "sync tuples", "net time", "agree"},
	}
	opts := core.Options{LocalRelations: []string{"l"}, DisableResidual: true}
	for _, n := range densities {
		L := workload.Intervals(rand.New(rand.NewSource(seed)), n, 20, 200)
		stream := workload.IntervalInserts(rand.New(rand.NewSource(seed+1)), updates, 10, 200, "l")

		co, err := d1Coordinator(L, opts, latency)
		if err != nil {
			return t, err
		}
		// After the initial sync the coordinator's mirror holds l and r.
		embedded := core.New(co.Checker.DB().Clone(), opts)
		if err := embedded.AddConstraintSource("fi", d1Constraint); err != nil {
			return t, err
		}

		agree := true
		for _, u := range stream {
			want, err := embedded.Apply(u)
			if err != nil {
				return t, err
			}
			got, err := co.Apply(u)
			if err != nil {
				return t, err
			}
			if fmt.Sprint(want.Applied, want.Decisions) != fmt.Sprint(got.Applied, got.Decisions) {
				agree = false
			}
		}
		st := co.Stats()
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmt.Sprintf("%d/%d", st.DecidedLocally, st.Updates),
			fmt.Sprint(st.RoundTrips),
			fmt.Sprint(st.WireTuples), fmt.Sprint(st.SyncTuples),
			st.NetTime.Round(time.Millisecond).String(),
			yn(agree),
		})
	}
	t.Notes = append(t.Notes,
		"trips (measured) counts frames the coordinator sent after the initial sync",
		"every request/response crosses the frame codec, so wire tuples are what TCP would carry; sync tuples is the one-time mirror bootstrap",
		"net time is wall clock spent inside transport round trips, dominated by the injected per-request latency",
		"agree: every update got the verdict and per-constraint decisions of an embedded checker over one store holding l and r")
	return t, nil
}
