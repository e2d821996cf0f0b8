//go:build race

package netserve

// raceEnabled reports the race detector is active; its instrumentation
// allocates, so allocation pins only hold without it.
const raceEnabled = true
