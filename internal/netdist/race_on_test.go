//go:build race

package netdist

// raceEnabled: the race detector allocates, so allocation guards skip.
const raceEnabled = true
