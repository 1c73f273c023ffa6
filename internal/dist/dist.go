// Package dist simulates the paper's motivating scenario: a database
// split between a local site (where updates arrive) and remote sites
// whose data is expensive to reach. It wraps the core.Checker pipeline
// with a network cost model and per-update accounting, so experiments can
// measure exactly the quantity the paper optimizes — remote data touched
// per update — under different checking strategies.
package dist

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/store"
)

// CostModel prices remote access in abstract cost units.
type CostModel struct {
	// RemoteLatency is charged once per update that needs any remote
	// round trip (the global phase).
	RemoteLatency float64
	// RemotePerTuple is charged per remote tuple transferred.
	RemotePerTuple float64
}

// DefaultCost is a conventional wide-area setting: a round trip costs as
// much as shipping 100 tuples.
var DefaultCost = CostModel{RemoteLatency: 100, RemotePerTuple: 1}

// Stats aggregates the simulation.
type Stats struct {
	Updates        int
	Rejected       int
	ByPhase        map[core.Phase]int // decisions per deciding phase
	RemoteTuples   int64              // remote tuples read in total
	RemoteTrips    int                // updates that touched remote data
	Cost           float64            // per CostModel
	LocalTuples    int64              // local tuples read in total
	DecidedLocally int                // updates decided without remote access
}

// System is a simulated two-tier deployment.
type System struct {
	Checker *core.Checker
	db      *store.Store
	local   map[string]bool
	cost    CostModel
	stats   Stats
}

// New builds a system over db with the given local relations; all other
// relations are remote.
func New(db *store.Store, localRelations []string, cost CostModel) *System {
	return &System{
		Checker: core.New(db, core.Options{LocalRelations: localRelations}),
		db:      db,
		local:   toSet(localRelations),
		cost:    cost,
		stats:   Stats{ByPhase: map[core.Phase]int{}},
	}
}

// NewWithOptions builds a system with explicit checker options;
// opts.LocalRelations defines the site split, opts.DisableUpdateOnly /
// DisableLocalData select ablation strategies.
func NewWithOptions(db *store.Store, opts core.Options, cost CostModel) *System {
	return &System{
		Checker: core.New(db, opts),
		db:      db,
		local:   toSet(opts.LocalRelations),
		cost:    cost,
		stats:   Stats{ByPhase: map[core.Phase]int{}},
	}
}

func toSet(names []string) map[string]bool {
	m := map[string]bool{}
	for _, n := range names {
		m[n] = true
	}
	return m
}

// Stats returns the accumulated statistics. The ByPhase map is a copy:
// mutating it does not touch the system's live counters.
func (s *System) Stats() Stats {
	st := s.stats
	st.ByPhase = make(map[core.Phase]int, len(s.stats.ByPhase))
	for p, n := range s.stats.ByPhase {
		st.ByPhase[p] = n
	}
	return st
}

// Apply pushes one update through the pipeline, accounting local and
// remote reads.
func (s *System) Apply(u store.Update) (core.Report, error) {
	before := s.snapshotReads()
	rep, err := s.Checker.Apply(u)
	if err != nil {
		return rep, err
	}
	s.stats.Updates++
	if !rep.Applied {
		s.stats.Rejected++
	}
	var remote, local int64
	for name, delta := range s.readDeltas(before) {
		if s.local[name] {
			local += delta
		} else {
			remote += delta
		}
	}
	s.stats.LocalTuples += local
	s.stats.RemoteTuples += remote
	// A global-phase decision is a remote round trip even when the
	// remote relations turn out to be empty: the site must still be
	// asked.
	usedGlobal := false
	for _, d := range rep.Decisions {
		s.stats.ByPhase[d.Phase]++
		if d.Phase == core.PhaseGlobal {
			usedGlobal = true
		}
	}
	if remote > 0 || usedGlobal {
		s.stats.RemoteTrips++
		s.stats.Cost += s.cost.RemoteLatency + float64(remote)*s.cost.RemotePerTuple
	} else {
		s.stats.DecidedLocally++
	}
	return rep, nil
}

func (s *System) snapshotReads() map[string]int64 {
	out := map[string]int64{}
	for _, n := range s.db.Names() {
		out[n] = s.db.Reads(n)
	}
	return out
}

func (s *System) readDeltas(before map[string]int64) map[string]int64 {
	out := map[string]int64{}
	for _, n := range s.db.Names() {
		if d := s.db.Reads(n) - before[n]; d > 0 {
			out[n] = d
		}
	}
	return out
}

// Report renders the statistics as a small table.
func (s *System) Report() string {
	st := s.stats
	var sb strings.Builder
	fmt.Fprintf(&sb, "updates: %d  rejected: %d  decided-locally: %d (%.1f%%)\n",
		st.Updates, st.Rejected, st.DecidedLocally, pct(st.DecidedLocally, st.Updates))
	fmt.Fprintf(&sb, "remote: %d trips, %d tuples, cost %.0f\n", st.RemoteTrips, st.RemoteTuples, st.Cost)
	fmt.Fprintf(&sb, "local tuples read: %d\n", st.LocalTuples)
	var phases []core.Phase
	for p := range st.ByPhase {
		phases = append(phases, p)
	}
	sort.Slice(phases, func(i, j int) bool { return phases[i] < phases[j] })
	for _, p := range phases {
		fmt.Fprintf(&sb, "  decided by %-12s %d\n", p.String()+":", st.ByPhase[p])
	}
	return sb.String()
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
