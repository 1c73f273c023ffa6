//go:build !race

package netdist

const raceEnabled = false
