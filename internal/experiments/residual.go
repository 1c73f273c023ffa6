package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/workload"
)

// ExpResidual is the residual-dispatch A/B on the D1 interval workload:
// the residual arm compiles each update pattern once into a specialized
// residual program and decides every later update of that pattern with
// the pattern VM, the noresidual arm (ccheck -noresidual) runs the full
// staged pipeline, which for this workload means the phase-4 global
// evaluation on every update. Both arms see the same stream and must
// return identical verdicts; the table also reports the pattern-cache
// counters, which show the whole stream amortizing onto two
// compilations (insert-l and insert-r).
func ExpResidual(density, updates, rounds int, seed int64) (Table, error) {
	t := Table{
		Title:   "Residual compilation — D1 interval workload, residual dispatch vs -noresidual",
		Columns: []string{"arm", "updates", "total time", "time/update", "vs noresidual", "resid hits", "resid compiled", "resid entries"},
	}
	arms := []struct {
		name    string
		disable bool
	}{
		{"noresidual", true},
		{"residual", false},
	}
	var baseline time.Duration
	for _, arm := range arms {
		var total time.Duration
		var hits, compiled int64
		var entries int
		for round := 0; round < rounds; round++ {
			rng := rand.New(rand.NewSource(seed))
			db := store.New()
			for _, tu := range workload.Intervals(rng, density, 20, 200) {
				if _, err := db.Insert("l", tu); err != nil {
					return t, err
				}
			}
			for i := int64(0); i < 50; i++ {
				if _, err := db.Insert("r", relation.Ints(10000+i)); err != nil {
					return t, err
				}
			}
			chk := core.New(db, core.Options{
				LocalRelations:  []string{"l"},
				DisableResidual: arm.disable,
			})
			if err := chk.AddConstraintSource("fi", "panic :- l(X,Y) & r(Z) & X <= Z & Z <= Y."); err != nil {
				return t, err
			}
			var stream []store.Update
			for k, u := range workload.IntervalInserts(rng, updates/2, 10, 200, "l") {
				stream = append(stream, u,
					store.Ins("r", relation.Ints(20000+int64(k))))
			}
			start := time.Now()
			for _, u := range stream {
				if _, err := chk.Apply(u); err != nil {
					return t, err
				}
			}
			total += time.Since(start)
			st := chk.Stats()
			hits += st.ResidualHits
			compiled += st.ResidualCompiled
			entries = st.ResidualEntries
		}
		if arm.name == "noresidual" {
			baseline = total
		}
		ratio := "—"
		if baseline > 0 && arm.name != "noresidual" {
			ratio = fmt.Sprintf("%+.1f%%", 100*(float64(total)/float64(baseline)-1))
		}
		n := (updates / 2) * 2 * rounds
		t.Rows = append(t.Rows, []string{
			arm.name, fmt.Sprint(n), total.String(), (total / time.Duration(n)).String(), ratio,
			fmt.Sprint(hits), fmt.Sprint(compiled), fmt.Sprint(entries),
		})
	}
	t.Notes = append(t.Notes,
		"the constraint spans a local and a remote relation, so the noresidual arm cannot certify locally and pays the global evaluation on every update",
		"residual entries stay at 2 — one compiled pattern per update shape (+l, +r) serves the whole stream",
		"single-run wall clocks are noisy — bench/'s embed_flat workload measures the residual VM end to end")
	return t, nil
}
