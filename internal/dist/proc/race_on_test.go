//go:build race

package proc

// raceEnabled reports that this build runs under the race detector,
// whose instrumentation changes allocation behavior; allocation-count
// pins are meaningless there and skip themselves.
const raceEnabled = true
