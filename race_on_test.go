//go:build race

package repro_test

// raceEnabled reports that this build runs under the race detector,
// whose instrumentation changes allocation behavior; allocation pins
// are meaningless there and skip themselves.
const raceEnabled = true
