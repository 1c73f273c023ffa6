package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestNaiveArmPaysMoreRoundTrips: the naive strategy asks the jobs site
// for every insertion; the staged pipeline settles most of them locally.
func TestNaiveArmPaysMoreRoundTrips(t *testing.T) {
	s, _, err := arm(false)
	if err != nil {
		t.Fatal(err)
	}
	n, _, err := arm(true)
	if err != nil {
		t.Fatal(err)
	}
	if s.Updates != nUpdates || n.Updates != nUpdates {
		t.Fatalf("updates = %d staged, %d naive, want %d", s.Updates, n.Updates, nUpdates)
	}
	if n.RoundTrips <= s.RoundTrips {
		t.Errorf("naive arm made %d round trips, staged arm %d", n.RoundTrips, s.RoundTrips)
	}
}

func TestReportPrintsSavings(t *testing.T) {
	var out bytes.Buffer
	if err := report(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "remote cost saved by partial-information checking:") {
		t.Errorf("no savings line:\n%s", out.String())
	}
}
