//go:build race

package serve

// raceEnabled: the race detector allocates, so allocation guards skip.
const raceEnabled = true
