//go:build race

package core

// raceEnabled: the race detector allocates, so allocation guards skip.
const raceEnabled = true
