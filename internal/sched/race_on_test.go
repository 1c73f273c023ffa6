//go:build race

package sched

// raceEnabled: the race detector allocates, so allocation guards skip.
const raceEnabled = true
