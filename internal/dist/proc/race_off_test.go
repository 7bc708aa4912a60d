//go:build !race

package proc

const raceEnabled = false
