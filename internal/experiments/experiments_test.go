package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestFig21AllAgree(t *testing.T) {
	tab := Fig21()
	if len(tab.Rows) != 12 {
		t.Fatalf("rows = %d, want 12", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[3] != "yes" {
			t.Errorf("class %q misclassified as %q", row[0], row[2])
		}
	}
	if !strings.Contains(tab.Render(), "Fig 2.1") {
		t.Error("render missing title")
	}
}

func TestFig41MatchesPaper(t *testing.T) {
	tab := Fig41()
	circled := 0
	for _, row := range tab.Rows {
		if row[4] != "yes" {
			t.Errorf("closure disagreement for %q: preserved=%q circled=%q", row[0], row[2], row[3])
		}
		if row[3] == "yes" {
			circled++
		}
		if row[5] != "verified(40)" {
			t.Errorf("semantics not verified for %q: %q", row[0], row[5])
		}
	}
	if circled != 8 {
		t.Errorf("circled classes = %d, want 8", circled)
	}
}

func TestFig42MatchesPaper(t *testing.T) {
	tab := Fig42()
	circled := 0
	for _, row := range tab.Rows {
		if row[5] != "yes" {
			t.Errorf("closure disagreement for %q", row[0])
		}
		if row[4] == "yes" {
			circled++
		}
		if row[6] != "verified(40)" {
			t.Errorf("semantics not verified for %q: %q", row[0], row[6])
		}
	}
	if circled != 6 {
		t.Errorf("circled classes = %d, want 6", circled)
	}
}

func TestFig61(t *testing.T) {
	gen, paper, err := Fig61Program()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(gen, "iv$cc") || !strings.Contains(paper, "interval") {
		t.Error("programs look wrong")
	}
	demo, err := Fig61Demo()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range demo.Rows {
		if row[4] != "yes" {
			t.Errorf("datalog/direct disagreement on %s", row[0])
		}
	}
	// The canonical (4,8) row must be safe; (2,8) must not.
	verdicts := map[string]string{}
	for _, row := range demo.Rows {
		verdicts[row[0]] = row[2]
	}
	if verdicts["(4,8)"] != "safe" {
		t.Errorf("(4,8) verdict = %q", verdicts["(4,8)"])
	}
	if verdicts["(2,8)"] == "safe" {
		t.Error("(2,8) wrongly safe")
	}
}

func TestExpTheorem51VsKlug(t *testing.T) {
	tab := ExpTheorem51VsKlug([]int{1, 2, 3})
	for _, row := range tab.Rows {
		if row[6] != "yes" {
			t.Errorf("k=%s: deciders disagree: %v", row[0], row)
		}
		if row[2] != "yes" {
			t.Errorf("k=%s: self-containment not detected", row[0])
		}
	}
}

func TestExpTheorem51VsKlugRandomNoDisagreements(t *testing.T) {
	tab := ExpTheorem51VsKlugRandom(150, 17)
	if tab.Rows[0][2] != "0" {
		t.Errorf("disagreements = %s", tab.Rows[0][2])
	}
}

func TestExpLocalTestMonotoneInDensity(t *testing.T) {
	tab, err := ExpLocalTest([]int{5, 200}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// More local coverage must certify at least as many inserts.
	small, large := tab.Rows[0][2], tab.Rows[1][2]
	if small > large && len(small) >= len(large) {
		t.Errorf("certification not monotone: |L|=5 → %s, |L|=200 → %s", small, large)
	}
}

func TestExpRACompile(t *testing.T) {
	tab, err := ExpRACompile([]int{10, 1000}, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	if tab.Rows[0][3] != tab.Rows[1][3] {
		t.Error("compiled expression must not depend on the data")
	}
}

func TestExpIntervalAblationAgrees(t *testing.T) {
	tab, err := ExpIntervalAblation([]int{5, 20}, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if row[4] != "yes" {
			t.Errorf("|L|=%s: the three implementations disagree", row[0])
		}
	}
}

func TestExpSubsumption(t *testing.T) {
	tab := ExpSubsumption([]int{1, 2, 3})
	for _, row := range tab.Rows {
		if row[1] != "yes" {
			t.Errorf("k=%s: self-subsumption failed: %v", row[0], row)
		}
	}
}

func TestExpDistributedStagedBeatsNaive(t *testing.T) {
	tab, err := ExpDistributed([]int{150}, 40, 5)
	if err != nil {
		t.Fatal(err)
	}
	var staged, naive []string
	for _, row := range tab.Rows {
		switch row[1] {
		case "staged":
			staged = row
		case "naive":
			naive = row
		}
	}
	if staged == nil || naive == nil {
		t.Fatal("missing strategy rows")
	}
	if staged[5] >= naive[5] && len(staged[5]) >= len(naive[5]) {
		t.Errorf("staged cost %s not below naive cost %s", staged[5], naive[5])
	}
}

func TestExpExample41(t *testing.T) {
	tab, err := ExpExample41()
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: +dept(toy) against C1 must be certified ("yes").
	if !strings.HasPrefix(tab.Rows[0][2], "yes") {
		t.Errorf("+dept(toy) vs C1: %q", tab.Rows[0][2])
	}
	// High-salary insert against C2 must NOT be certified.
	if strings.HasPrefix(tab.Rows[3][2], "yes") {
		t.Errorf("violating insert certified: %q", tab.Rows[3][2])
	}
	// Deleting an employee cannot violate C1.
	if !strings.HasPrefix(tab.Rows[4][2], "yes") {
		t.Errorf("-emp vs C1: %q", tab.Rows[4][2])
	}
}

func TestTableRender(t *testing.T) {
	tab := Table{
		Title:   "T",
		Columns: []string{"a", "bbbb"},
		Rows:    [][]string{{"xxxxx", "y"}},
		Notes:   []string{"n"},
	}
	out := tab.Render()
	for _, want := range []string{"T\n=", "a", "bbbb", "xxxxx", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// TestExpNetDistributedAgreesWithModel: the wire run must reach the
// verdicts of the one-store model — an embedded checker over l and r —
// and pay exactly one round trip per update it could not decide locally.
func TestExpNetDistributedAgreesWithModel(t *testing.T) {
	tab, err := ExpNetDistributed([]int{10, 150}, 40, time.Millisecond, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if row[6] != "yes" {
			t.Errorf("density %s: wire run disagrees with the embedded checker: %v", row[0], row)
		}
		var local, updates int
		if _, err := fmt.Sscanf(row[1], "%d/%d", &local, &updates); err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprint(updates - local); row[2] != want {
			t.Errorf("density %s: %s round trips for %d updates not decided locally", row[0], row[2], updates-local)
		}
		if row[4] != "50" {
			t.Errorf("density %s: sync tuples = %s, want 50", row[0], row[4])
		}
	}
}

// TestExpResidualCounters pins the residual accounting of the A/B: two
// checks (+l, +r) compiled when the constraint is added serve the whole
// stream; the noresidual arm never touches the residual machinery. Wall
// clocks are not asserted — the residual VM's cost is measured by bench/'s
// embed_flat workload.
func TestExpResidualCounters(t *testing.T) {
	tab, err := ExpResidual(20, 30, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(tab.Rows))
	}
	find := func(arm string) []string {
		t.Helper()
		for _, row := range tab.Rows {
			if row[0] == arm {
				return row
			}
		}
		t.Fatalf("no %s row in %v", arm, tab.Rows)
		return nil
	}
	// Columns: arm, updates, total, per-update, ratio, hits, compiled.
	off := find("noresidual")
	if off[5] != "0" || off[6] != "0" {
		t.Errorf("noresidual arm touched the residual machinery: %v", off)
	}
	on := find("residual")
	if on[1] != "30" || on[5] != "30" || on[6] != "2" {
		t.Errorf("residual counters = updates:%s hits:%s compiled:%s, want 30/30/2",
			on[1], on[5], on[6])
	}
}
