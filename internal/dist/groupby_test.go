package dist

import (
	"errors"
	"math"
	"testing"

	"repro/internal/rsum"
	"repro/internal/sqlagg"
	"repro/internal/workload"
)

// dealRows distributes rows round-robin across nodes shards.
func dealRows(keys []uint32, vals []float64, nodes int) ([][]uint32, [][]float64) {
	lk := make([][]uint32, nodes)
	lv := make([][]float64, nodes)
	for i := range keys {
		d := i % nodes
		lk[d] = append(lk[d], keys[i])
		lv[d] = append(lv[d], vals[i])
	}
	return lk, lv
}

// refGroups computes the ground-truth groups with one sequential state
// per key, in row order.
func refGroups(keys []uint32, vals []float64) map[uint32]uint64 {
	states := make(map[uint32]*rsum.State64)
	for i, k := range keys {
		st, ok := states[k]
		if !ok {
			s := rsum.NewState64(levels)
			states[k] = &s
			st = &s
		}
		st.Add(vals[i])
	}
	out := make(map[uint32]uint64, len(states))
	for k, st := range states {
		out[k] = math.Float64bits(st.Value())
	}
	return out
}

// TestAggregateByKeyBitReproducible: the full group list carries the
// same bits for every cluster size, worker count, and forced shuffle
// send order, and matches a sequential per-key reference.
func TestAggregateByKeyBitReproducible(t *testing.T) {
	const n = 60000
	const ngroups = 1000
	keys := workload.Keys(8, n, ngroups)
	vals := workload.Values64(7, n, workload.MixedMag)
	want := refGroups(keys, vals)

	rng := workload.NewRNG(99)
	for _, nodes := range clusterSizes {
		lk, lv := dealRows(keys, vals, nodes)
		for _, workers := range workerCounts {
			out, err := AggregateByKey(lk, lv, workers)
			if err != nil {
				t.Fatalf("AggregateByKey(%d nodes, %d workers): %v", nodes, workers, err)
			}
			checkGroups(t, out, want, nodes, workers)
		}
		// Forced random sender orders (senders are independent in the
		// shuffle, so any permutation of node ids is admissible).
		for trial := 0; trial < 3; trial++ {
			order := randPerm(rng, nodes)
			out, err := AggregateByKeyConfig(lk, lv, 2, Config{gate: newSendGate(order)})
			if err != nil {
				t.Fatalf("gated AggregateByKey(%d nodes): %v", nodes, err)
			}
			checkGroups(t, out, want, nodes, 2)
		}
	}
}

func checkGroups(t *testing.T, out []Group, want map[uint32]uint64, nodes, workers int) {
	t.Helper()
	if len(out) != len(want) {
		t.Fatalf("%d nodes, %d workers: %d groups, want %d", nodes, workers, len(out), len(want))
	}
	for i, g := range out {
		if i > 0 && out[i-1].Key >= g.Key {
			t.Fatalf("%d nodes: output not strictly sorted by key at %d", nodes, i)
		}
		wantBits, ok := want[g.Key]
		if !ok {
			t.Fatalf("%d nodes: unexpected group %d", nodes, g.Key)
		}
		if got := math.Float64bits(g.Sum); got != wantBits {
			t.Fatalf("%d nodes, %d workers: group %d = %016x, want %016x",
				nodes, workers, g.Key, got, wantBits)
		}
	}
}

// randPerm returns a Fisher–Yates permutation of [0, n).
func randPerm(rng *workload.RNG, n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// TestAggregateByKeyErrors covers the validated error paths.
func TestAggregateByKeyErrors(t *testing.T) {
	if _, err := AggregateByKey(nil, nil, 1); !errors.Is(err, ErrNoShards) {
		t.Errorf("no shards: got %v, want ErrNoShards", err)
	}
	// Shard-count mismatch between keys and values.
	if _, err := AggregateByKey([][]uint32{{1}}, [][]float64{{1}, {2}}, 1); !errors.Is(err, ErrShardMismatch) {
		t.Errorf("shard count mismatch: got %v, want ErrShardMismatch", err)
	}
	// Per-shard length mismatch.
	if _, err := AggregateByKey([][]uint32{{1, 2}}, [][]float64{{1.0}}, 1); !errors.Is(err, ErrShardMismatch) {
		t.Errorf("row count mismatch: got %v, want ErrShardMismatch", err)
	}
	for _, w := range []int{0, -1} {
		if _, err := AggregateByKey([][]uint32{{1}}, [][]float64{{1}}, w); !errors.Is(err, ErrWorkers) {
			t.Errorf("workers=%d: got %v, want ErrWorkers", w, err)
		}
	}
}

// TestAggregateByKeyEmpty: empty shards and the empty cluster row set.
func TestAggregateByKeyEmpty(t *testing.T) {
	out, err := AggregateByKey(make([][]uint32, 4), make([][]float64, 4), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 {
		t.Fatalf("empty cluster produced %d groups", len(out))
	}
}

// TestShuffleFrameRoundTrip exercises the ⟨key, state⟩ frame encoding
// used by the shuffle, including corrupt-frame rejection.
func TestShuffleFrameRoundTrip(t *testing.T) {
	s1 := rsum.NewState64(levels)
	s1.Add(1.25)
	s2 := rsum.NewState64(levels)
	s2.AddSliceVec([]float64{3, 4, 5})

	// The single-SUM plan's tuples are bare canonical State64 encodings.
	plan, err := sqlagg.NewTuplePlan(sumSpecs())
	if err != nil {
		t.Fatal(err)
	}
	// t2 carries a summation buffer that is still part-filled when it
	// is encoded: the frame holds flushed tuples either way.
	t1, t2 := plan.NewTuple(0), plan.NewTuple(32)
	plan.AddRow(&t1, [][]float64{{1.25}}, 0)
	for row := range 3 {
		plan.AddRow(&t2, [][]float64{{3, 4, 5}}, row)
	}
	frame, err := appendTuple(nil, 7, plan, &t1)
	if err == nil {
		frame, err = appendTuple(frame, 1000, plan, &t2)
	}
	if err != nil {
		t.Fatalf("appendTuple: %v", err)
	}
	var got []uint32
	err = walkFrame(frame, func(key uint32, enc []byte) error {
		got = append(got, key)
		var st rsum.State64
		if err := st.UnmarshalBinary(enc); err != nil {
			return err
		}
		want := s1
		if key == 1000 {
			want = s2
		}
		if !st.Equal(&want) {
			t.Errorf("key %d: decoded state differs", key)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walkFrame: %v", err)
	}
	if len(got) != 2 || got[0] != 7 || got[1] != 1000 {
		t.Fatalf("walked keys %v, want [7 1000]", got)
	}

	for _, bad := range [][]byte{frame[:5], frame[:len(frame)-1]} {
		if err := walkFrame(bad, func(uint32, []byte) error { return nil }); err == nil {
			t.Error("walkFrame accepted a corrupt frame")
		}
	}
}
