//go:build race

package main

// raceEnabled reports that the race detector is compiled in. It slows
// the engine roughly tenfold, so the open loop's fixed 135 req/s is then
// more than the stack can serve and requests are shed.
const raceEnabled = true
