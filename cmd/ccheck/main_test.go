package main

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"encoding/json"

	"repro/internal/netdist"
	"repro/internal/obs"
	"repro/internal/parser"
	"repro/internal/store"
)

func TestParseUpdates(t *testing.T) {
	src := `
% a comment
+emp(jones, shoe, 50)
-dept(toy)
// another comment
+l(3,6)
`
	us, err := ParseUpdates(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(us) != 3 {
		t.Fatalf("parsed %d updates, want 3", len(us))
	}
	if !us[0].Insert || us[0].Relation != "emp" || len(us[0].Tuple) != 3 {
		t.Errorf("update 0 = %v", us[0])
	}
	if us[1].Insert || us[1].Relation != "dept" {
		t.Errorf("update 1 = %v", us[1])
	}
}

func TestParseUpdatesErrors(t *testing.T) {
	bad := []string{
		"emp(a)",  // missing sign
		"+emp(X)", // non-ground
		"+emp(a) junk",
	}
	for _, src := range bad {
		if _, err := ParseUpdates(src); err == nil {
			t.Errorf("ParseUpdates(%q) accepted", src)
		}
	}
}

// mustConfig builds a config the way main does, failing the test on
// validation errors.
func mustConfig(t *testing.T, constraints, data, updates, local string, verbose bool, save string, sites ...string) config {
	t.Helper()
	cfg, err := buildConfig(flags{
		constraints: constraints, data: data, updates: updates, local: local,
		verbose: verbose, save: save,
		timeout: 2 * time.Second, retries: 3, sites: sites,
	})
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestBuildConfigValidation(t *testing.T) {
	ok := func(err error, msg string) {
		t.Helper()
		if err == nil {
			t.Errorf("%s: accepted", msg)
		}
	}
	base := flags{constraints: "c.dl", updates: "u.txt", timeout: time.Second, retries: 3}
	_, err := buildConfig(flags{updates: "u.txt", timeout: time.Second, retries: 3})
	ok(err, "missing -constraints")
	_, err = buildConfig(flags{constraints: "c.dl", timeout: time.Second, retries: 3})
	ok(err, "missing -updates")
	f := base
	f.sites = []string{"hostonly"}
	_, err = buildConfig(f)
	ok(err, "malformed -sites spec")
	f.sites = []string{"h:1=r", "h:2=r"}
	_, err = buildConfig(f)
	ok(err, "relation claimed by two sites")
	f.sites = []string{"h:1=r"}
	f.local = "r,s"
	_, err = buildConfig(f)
	ok(err, "relation both local and remote")

	cfg, err := buildConfig(flags{
		constraints: "c.dl", data: "d.dl", updates: "u.txt", local: "emp",
		verbose: true, save: "out.dl", timeout: time.Second, retries: 3,
		sites: []string{"h:1=dept", "h:2=salRange,cap"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.sites) != 2 || cfg.sites[1].Site != "h:2" || len(cfg.sites[1].Relations) != 2 {
		t.Errorf("parsed sites = %+v", cfg.sites)
	}
}

func TestRunEndToEnd(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	constraints := write("c.dl", `panic :- emp(E,D,S) & not dept(D).

panic :- emp(E,D,S) & S > 100.`)
	data := write("d.dl", "dept(toy). emp(ann,toy,50).")
	updates := write("u.txt", `
+dept(shoe)
+emp(bob,shoe,60)
+emp(eve,ghost,70)
+emp(zed,toy,900)
-emp(ann,toy,50)
`)
	saved := filepath.Join(dir, "out.dl")
	if err := run(mustConfig(t, constraints, data, updates, "emp,dept", true, saved)); err != nil {
		t.Fatal(err)
	}
	dump, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), "emp(bob,shoe,60).") {
		t.Errorf("saved dump missing applied tuple:\n%s", dump)
	}
	if strings.Contains(string(dump), "ghost") || strings.Contains(string(dump), "zed") {
		t.Errorf("saved dump contains rejected tuples:\n%s", dump)
	}
	if strings.Contains(string(dump), "emp(ann,toy,50).") {
		t.Errorf("saved dump contains deleted tuple:\n%s", dump)
	}
	// Violated constraint at load time must error.
	badData := write("bad.dl", "emp(x,ghost,5).")
	if err := run(mustConfig(t, constraints, badData, updates, "", false, "")); err == nil {
		t.Error("initially-violated database accepted")
	}
	// Missing file.
	if err := run(mustConfig(t, filepath.Join(dir, "missing.dl"), data, updates, "", false, "")); err == nil {
		t.Error("missing constraints file accepted")
	}
}

// TestRunTraceAndStats drives run() with the observability flags on: the
// JSONL trace must hold one bracketed event group per update and the
// stats file must carry the per-phase counts and the cache hit rate.
func TestRunTraceAndStats(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	constraints := write("c.dl", "panic :- emp(E,D,S) & S > 100.")
	data := write("d.dl", "emp(ann,toy,50).")
	updates := write("u.txt", "+emp(bob,toy,60)\n+emp(zed,toy,900)\n")
	traceOut := filepath.Join(dir, "trace.jsonl")
	statsOut := filepath.Join(dir, "stats.json")

	cfg := mustConfig(t, constraints, data, updates, "", false, "")
	cfg.trace = true
	cfg.traceOut = traceOut
	cfg.statsJSON = statsOut
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	var events []obs.Event
	for _, line := range lines {
		var e obs.Event
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		events = append(events, e)
	}
	begins, ends := 0, 0
	for _, e := range events {
		switch e.Kind {
		case obs.KindUpdateBegin:
			begins++
		case obs.KindUpdateEnd:
			ends++
		}
	}
	if begins != 2 || ends != 2 {
		t.Errorf("trace has %d begins / %d ends, want 2 / 2", begins, ends)
	}
	last := events[len(events)-1]
	if last.Applied || len(last.Rejected) != 1 {
		t.Errorf("rejected update's end event = %+v", last)
	}

	var doc map[string]any
	raw, err = os.ReadFile(statsOut)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	checker, ok := doc["checker"].(map[string]any)
	if !ok {
		t.Fatalf("stats JSON missing checker section: %v", doc)
	}
	if checker["updates"] != float64(2) || checker["rejected"] != float64(1) {
		t.Errorf("checker stats = %v", checker)
	}
	if _, ok := checker["cache_hit_rate"]; !ok {
		t.Error("stats JSON missing cache_hit_rate")
	}
	byPhase, ok := checker["by_phase"].(map[string]any)
	if !ok || len(byPhase) == 0 {
		t.Errorf("stats JSON by_phase = %v", checker["by_phase"])
	}
	if _, ok := doc["net"]; !ok {
		t.Error("stats JSON missing net section for a -sites-less run")
	}
}

// TestRunWithSites drives run() against a real ccsited-style TCP site:
// dept lives remotely, emp locally, and the referential constraint must
// reject the hire into a department the site doesn't know.
func TestRunWithSites(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	siteDB := store.New()
	facts, err := parser.ParseProgram("dept(toy). dept(shoe).")
	if err != nil {
		t.Fatal(err)
	}
	if err := siteDB.LoadFacts(facts); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go netdist.NewServer(siteDB, []string{"dept"}).Serve(l)

	constraints := write("c.dl", "panic :- emp(E,D,S) & not dept(D).")
	data := write("d.dl", "emp(ann,toy,50).")
	updates := write("u.txt", "+emp(bob,shoe,60)\n+emp(eve,ghost,70)\n")
	saved := filepath.Join(dir, "out.dl")
	cfg := mustConfig(t, constraints, data, updates, "emp", true, saved,
		l.Addr().String()+"=dept")
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	dump, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dump), "emp(bob,shoe,60).") {
		t.Errorf("valid hire missing from dump:\n%s", dump)
	}
	if strings.Contains(string(dump), "ghost") {
		t.Errorf("invalid hire committed:\n%s", dump)
	}
	// An unreachable site must surface as an error, not a hang or crash.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()
	cfg, err = buildConfig(flags{
		constraints: constraints, data: data, updates: updates, local: "emp",
		timeout: 200 * time.Millisecond, retries: -1, sites: []string{deadAddr + "=dept"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := run(cfg); err == nil {
		t.Error("run against a dead site succeeded")
	}
}

// TestRunLocalWithoutSites: without -sites, the relations -local does not
// list are served by an in-process site. The hire into an unknown
// department is rejected after a round trip that fetches dept — the only
// frames a rejected update sends — and the department's insert, then the
// hire into it, are applied and saved as a run with every relation in
// one store saves them.
func TestRunLocalWithoutSites(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	constraints := write("c.dl", "panic :- emp(E,D,S) & not dept(D).\n\npanic :- emp(E,D,S) & S > 100.")
	data := write("d.dl", "dept(toy). emp(ann,toy,50).")
	statsOut := filepath.Join(dir, "stats.json")
	net := func() map[string]any {
		t.Helper()
		raw, err := os.ReadFile(statsOut)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Net map[string]any `json:"net"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		return doc.Net
	}

	cfg := mustConfig(t, constraints, data, write("ghost.txt", "+emp(eve,ghost,70)\n"), "emp", false, "")
	cfg.statsJSON = statsOut
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	if n := net(); n["rejected"] != float64(1) || n["round_trips"].(float64) < 1 || n["sync_tuples"] != float64(1) {
		t.Errorf("net stats of the rejected hire = %v, want 1 rejected after a round trip, dept(toy) synced", n)
	}

	saved := filepath.Join(dir, "out.dl")
	updates := write("u.txt", "+emp(eve,ghost,70)\n+dept(shoe)\n+emp(bob,shoe,60)\n")
	cfg = mustConfig(t, constraints, data, updates, "emp", false, saved)
	cfg.statsJSON = statsOut
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	if n := net(); n["updates"] != float64(3) || n["rejected"] != float64(1) {
		t.Errorf("net stats = %v, want 3 updates, 1 rejected", n)
	}
	dump, err := os.ReadFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	if want := "dept(toy).\ndept(shoe).\nemp(ann,toy,50).\nemp(bob,shoe,60).\n"; string(dump) != want {
		t.Errorf("saved:\n%s\nwant:\n%s", dump, want)
	}
}

// TestRunRepeatAndResidualStats: -repeat replays the script with
// counters reset between runs, so the final stats describe one
// warm-cache run — residual hits high, compilations zero (they happened
// in run one). -noresidual zeroes the residual family entirely.
func TestRunRepeatAndResidualStats(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	constraints := write("c.dl", "panic :- emp(E,D,S) & S > 100.")
	data := write("d.dl", "emp(ann,toy,50).")
	updates := write("u.txt", "+emp(bob,toy,60)\n+emp(cid,toy,70)\n+emp(dot,toy,80)\n")
	statsOut := filepath.Join(dir, "stats.json")

	load := func() map[string]any {
		t.Helper()
		raw, err := os.ReadFile(statsOut)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		checker, ok := doc["checker"].(map[string]any)
		if !ok {
			t.Fatalf("stats JSON missing checker section: %v", doc)
		}
		return checker
	}

	cfg := mustConfig(t, constraints, data, updates, "", false, "")
	cfg.statsJSON = statsOut
	cfg.repeat = 3
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	checker := load()
	// The last run runs the checks compiled when the constraints were
	// loaded: every update is served one, nothing compiles, and
	// updates/decisions count one run, not three.
	if checker["updates"] != float64(3) {
		t.Errorf("updates = %v, want 3 (last run only)", checker["updates"])
	}
	if checker["residual_hits"] != float64(3) || checker["residual_compiled"] != float64(0) {
		t.Errorf("warm run residual counters = hits:%v compiled:%v, want 3/0",
			checker["residual_hits"], checker["residual_compiled"])
	}

	cfg = mustConfig(t, constraints, data, updates, "", false, "")
	cfg.statsJSON = statsOut
	cfg.noresidual = true
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	checker = load()
	for _, key := range []string{"residual_hits", "residual_misses", "residual_compiled"} {
		if checker[key] != float64(0) {
			t.Errorf("-noresidual left %s = %v", key, checker[key])
		}
	}
	byPhase, ok := checker["by_phase"].(map[string]any)
	if !ok || byPhase["residual"] != nil {
		t.Errorf("-noresidual by_phase = %v", checker["by_phase"])
	}
}

// TestRunFixpointStats: the stats document says how the global phase's
// insert decisions were served — the first one builds the constraint's
// fixpoint, the rest run delta rounds on what it kept.
func TestRunFixpointStats(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	constraints := write("c.dl", "reach(X,Y) :- edge(X,Y).\nreach(X,Y) :- reach(X,Z) & edge(Z,Y).\npanic :- reach(X,X).")
	data := write("d.dl", "edge(1,2).")
	updates := write("u.txt", "+edge(2,3)\n+edge(3,1)\n+edge(3,4)\n")
	statsOut := filepath.Join(dir, "stats.json")
	cfg := mustConfig(t, constraints, data, updates, "", false, "")
	cfg.statsJSON = statsOut
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(statsOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Checker map[string]any `json:"checker"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	c := doc.Checker
	if c["rejected"] != float64(1) || c["fixpoint_rebuilds"] != float64(1) || c["fixpoint_hits"] != float64(2) || c["fixpoint_drops"] != float64(0) {
		t.Errorf("rejected:%v fixpoint rebuilds:%v hits:%v drops:%v, want 1 and 1/2/0",
			c["rejected"], c["fixpoint_rebuilds"], c["fixpoint_hits"], c["fixpoint_drops"])
	}
}
