package main

import "testing"

// TestRunQuickArtifacts smoke-runs each artifact in quick mode; the
// underlying experiments are validated in internal/experiments.
func TestRunQuickArtifacts(t *testing.T) {
	for _, id := range []string{"2.1", "4.1", "4.2", "6.1", "ex4.1", "t3", "t52", "t53", "dnet", "resid"} {
		if err := run(id, true); err != nil {
			t.Errorf("run(%q): %v", id, err)
		}
	}
}
