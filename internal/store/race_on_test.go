//go:build race

package store

// raceEnabled: the race detector allocates, so allocation guards skip.
const raceEnabled = true
