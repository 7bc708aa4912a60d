package repro_test

import (
	"testing"

	"repro"
)

// TestObserveSeesWireTraffic: the programmatic metrics surface reads
// the process-global registry, so a distributed run must be visible in
// the wire counters it returns — and the counters only move forward.
func TestObserveSeesWireTraffic(t *testing.T) {
	before := repro.Observe()

	shards := [][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	if _, err := repro.DistributedSum(shards, 2); err != nil {
		t.Fatalf("DistributedSum: %v", err)
	}

	after := repro.Observe()
	moved := after["repro_dist_chan_frames_total"] - before["repro_dist_chan_frames_total"]
	if moved <= 0 {
		t.Fatalf("chan frame counter moved by %v after a distributed run, want > 0", moved)
	}
	for name, v := range before {
		if after[name] < v {
			t.Fatalf("metric %s went backwards: %v -> %v", name, v, after[name])
		}
	}
}
