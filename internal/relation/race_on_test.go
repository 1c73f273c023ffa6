//go:build race

package relation

// raceEnabled: the race detector allocates, so allocation guards skip.
const raceEnabled = true
