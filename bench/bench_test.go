package main

import (
	"math"
	"regexp"
	"strings"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// smokeRun runs a workload at tiny sizes with a fixed repetition count —
// one, or an untraced and a traced one — and the oracle over the whole
// stream.
func smokeRun(t *testing.T, w workload, decl *declaration, trace bool) *result {
	t.Helper()
	o := runOpts{seed: 7, reps: 1, trace: trace, tiny: true, outDir: t.TempDir(), replay: 2 * time.Millisecond}
	if trace {
		o.reps = 2
	}
	res, err := runWorkload(w, o)
	if err != nil {
		t.Fatal(err)
	}
	// finish fails on a declared metric that is missing and on a measured
	// one that is not declared.
	if err := res.finish(decl); err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("%s trace=%v: %d of %d operations failed", w.name, trace, res.Failed, res.Attempted)
	}
	for _, d := range decl.metricsFor(trace) {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is missing", w.name, d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", w.name, d.Name, m.Value)
		case !metricName.MatchString(d.Name) || m.Unit != d.Unit:
			t.Errorf("%s: metric %q has unit %q, declared %q", w.name, d.Name, m.Unit, d.Unit)
		}
	}
	return res
}

// sameCounts: two runs with the same seed give identical counts — the
// phase shares and the named metrics.
func sameCounts(t *testing.T, a, b *result, names ...string) {
	t.Helper()
	for name, va := range a.values {
		exact := strings.HasPrefix(name, "core.phase_share.")
		for _, n := range names {
			exact = exact || name == n
		}
		if exact && va != b.values[name] {
			t.Errorf("%s: %s = %v, then %v", a.Workload, name, va, b.values[name])
		}
	}
}

// TestSmoke runs all four workloads at tiny sizes, untraced once and
// traced twice, and checks the metrics against BENCHMARK.json: every
// declared metric is there once, finite and well named, the program
// measures nothing it does not declare, the oracle passes, and counts
// repeat. Residual compilations are not compared on dist_sharded: a
// mirror refresh between two concurrent updates can add to them.
func TestSmoke(t *testing.T) {
	decl, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(decl.Workloads), len(workloads))
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDecl{}, decl.EndToEnd...), decl.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric %s is declared twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, wd := range decl.Workloads {
		w, ok := findWorkload(wd.Name)
		if !ok {
			t.Fatalf("declared workload %s does not exist", wd.Name)
		}
		t.Run(w.name, func(t *testing.T) {
			smokeRun(t, w, decl, false)
			a, b := smokeRun(t, w, decl, true), smokeRun(t, w, decl, true)
			if w.name == "dist_sharded" {
				sameCounts(t, a, b)
			} else {
				sameCounts(t, a, b, "residual.compiled")
			}
		})
	}
}

// TestWireCountsRepeat: with one caller and one worker nothing
// interleaves on dist_sharded, and the wire counts repeat exactly.
func TestWireCountsRepeat(t *testing.T) {
	decl, err := loadDeclaration()
	if err != nil {
		t.Fatal(err)
	}
	serial := workload{"dist_sharded", func(seed int64, tiny bool, tr *tracer) (instance, error) {
		return buildDist(seed, tiny, tr, 1, 1)
	}}
	a, b := smokeRun(t, serial, decl, false), smokeRun(t, serial, decl, false)
	sameCounts(t, a, b, "residual.compiled", "remote_round_trips_per_op", "wire_tuples_per_op", "local_decided_share")
}
