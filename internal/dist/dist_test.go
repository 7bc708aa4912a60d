package dist

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/rsum"
	"repro/internal/workload"
)

var (
	clusterSizes = []int{1, 2, 4, 16, 61}
	workerCounts = []int{1, 2, 8}
)

// shard deals values round-robin across nodes shards.
func shard(vals []float64, nodes int) [][]float64 {
	out := make([][]float64, nodes)
	for i, v := range vals {
		out[i%nodes] = append(out[i%nodes], v)
	}
	return out
}

// Reduce is ReduceConfig over the default configuration.
func Reduce(shards [][]float64, workers int) (float64, error) {
	return ReduceConfig(shards, workers, Config{})
}

// TestReduceBitReproducible is the headline property: the same multiset
// of values produces the same bits for every cluster size, worker
// count, and forced message arrival order.
func TestReduceBitReproducible(t *testing.T) {
	const n = 50000
	vals := workload.Values64(7, n, workload.MixedMag)

	// Ground truth: a single sequential state over all values.
	ref := rsum.NewState64(levels)
	ref.AddSliceVec(vals)
	want := math.Float64bits(ref.Value())

	rng := workload.NewRNG(42)
	for _, nodes := range clusterSizes {
		shards := shard(vals, nodes)
		for _, workers := range workerCounts {
			// Free-running (scheduler-ordered) arrival.
			sum, err := Reduce(shards, workers)
			if err != nil {
				t.Fatalf("Reduce(%d nodes, %d workers): %v", nodes, workers, err)
			}
			if got := math.Float64bits(sum); got != want {
				t.Fatalf("Reduce(%d nodes, %d workers) = %016x, want %016x",
					nodes, workers, got, want)
			}
			// Three forced random send orders: with no reduction tree,
			// every order of the senders is admissible.
			for trial := 0; trial < 3; trial++ {
				gate := newSendGate(randPerm(rng, nodes))
				sum, err := ReduceConfig(shards, workers, Config{gate: gate})
				if err != nil {
					t.Fatalf("reduce gated (%d nodes): %v", nodes, err)
				}
				if got := math.Float64bits(sum); got != want {
					t.Fatalf("gated reduce(%d nodes, %d workers) trial %d = %016x, want %016x",
						nodes, workers, trial, got, want)
				}
			}
		}
	}
}

// TestReduceShardingInvariance checks that how rows are dealt to nodes
// (round-robin vs contiguous blocks) does not change the bits.
func TestReduceShardingInvariance(t *testing.T) {
	const n = 20000
	vals := workload.Values64(11, n, workload.Exp1)

	rr, _ := Reduce(shard(vals, 16), 2)
	blocks := make([][]float64, 16)
	chunk := (n + 15) / 16
	for i := range blocks {
		lo, hi := i*chunk, min((i+1)*chunk, n)
		if lo < hi {
			blocks[i] = vals[lo:hi]
		}
	}
	bl, _ := Reduce(blocks, 8)
	if math.Float64bits(rr) != math.Float64bits(bl) {
		t.Fatalf("round-robin %016x != block %016x", math.Float64bits(rr), math.Float64bits(bl))
	}
}

// TestReduceSpecials checks that NaN and ±Inf inputs resolve
// deterministically through the distributed reduction.
func TestReduceSpecials(t *testing.T) {
	cases := []struct {
		name string
		vals []float64
		want float64
	}{
		{"posinf", []float64{1, math.Inf(1), 2}, math.Inf(1)},
		{"neginf", []float64{1, math.Inf(-1), 2}, math.Inf(-1)},
		{"nan", []float64{1, math.NaN(), 2}, math.NaN()},
		{"infclash", []float64{math.Inf(1), math.Inf(-1)}, math.NaN()},
	}
	for _, tc := range cases {
		got, err := Reduce(shard(tc.vals, 3), 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if math.Float64bits(got) != math.Float64bits(tc.want) &&
			!(math.IsNaN(got) && math.IsNaN(tc.want)) {
			t.Errorf("%s = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestReduceEmptyShards: nodes with no rows participate in the
// reduction with empty states.
func TestReduceEmptyShards(t *testing.T) {
	shards := make([][]float64, 8)
	shards[3] = []float64{1.5, 2.5}
	got, err := Reduce(shards, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got != 4.0 {
		t.Errorf("got %v, want 4", got)
	}
	got, err = Reduce([][]float64{nil}, 1)
	if err != nil || got != 0 {
		t.Errorf("all-empty cluster = (%v, %v), want (0, nil)", got, err)
	}
}

// reduceContractInputs are the inputs of the reduction's result
// contract: signed zeros, NaN, both infinities and 2^1000 (a magnitude
// past the extractor's comfortable range), mixed with ordinary values,
// and no rows at all.
func reduceContractInputs() map[string][]float64 {
	big := math.Ldexp(1, 1000)
	return map[string][]float64{
		"zeros":  {0, math.Copysign(0, -1), 0},
		"negz":   {math.Copysign(0, -1)},
		"big":    append(workload.Values64(3, 100, workload.MixedMag), big, -big, big, 1),
		"nan":    {1, math.NaN(), big},
		"posinf": {math.Inf(1), big, -1},
		"neginf": {math.Copysign(0, -1), math.Inf(-1)},
		"clash":  {math.Inf(1), 2, math.Inf(-1)},
		"empty":  nil,
	}
}

// TestReduceRootGroupIsTheSum: a reduction's root returns its result as
// the lone group ⟨0, SUM⟩ — so the cluster's result payload is that
// group's EncodeTupleGroups bytes — and no group for an input without
// rows, over every transport and a chaos fault plan.
func TestReduceRootGroupIsTheSum(t *testing.T) {
	for name, vals := range reduceContractInputs() {
		var want []byte
		if len(vals) > 0 {
			ref := rsum.NewState64(levels)
			ref.AddSliceVec(vals)
			want = EncodeTupleGroups([]TupleGroup{{Key: 0, Aggs: []float64{ref.Value()}}}, 1)
		}
		shards := shard(vals, 3)
		for tname, factory := range transportFactories() {
			for _, pname := range []string{"none", "chaos"} {
				cfg := matrixConfig(factory, faultPlans()[pname])
				tr, err := cfg.transport(len(shards))
				if err != nil {
					t.Fatal(err)
				}
				gs, err := runNodes(len(shards), func(id int) ([]TupleGroup, error) {
					return RunReduceNode(id, shards[id], 2, tr, cfg, nil)
				})
				tr.Close()
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", name, tname, pname, err)
				}
				if got := EncodeTupleGroups(gs, 1); !bytes.Equal(got, want) {
					t.Fatalf("%s/%s/%s: root groups encode to %x, want %x", name, tname, pname, got, want)
				}
			}
		}
	}
}

// TestReduceErrors covers the validated error paths.
func TestReduceErrors(t *testing.T) {
	if _, err := Reduce(nil, 1); !errors.Is(err, ErrNoShards) {
		t.Errorf("no shards: got %v, want ErrNoShards", err)
	}
	for _, w := range []int{0, -3} {
		if _, err := Reduce([][]float64{{1}}, w); !errors.Is(err, ErrWorkers) {
			t.Errorf("workers=%d: got %v, want ErrWorkers", w, err)
		}
	}
}

// TestPartialStateRoundTrip exercises the wire format the cluster
// ships: marshal on one "node", MergeBinary on another, against a
// directly merged reference.
func TestPartialStateRoundTrip(t *testing.T) {
	a := workload.Values64(3, 5000, workload.MixedMag)
	b := workload.Values64(4, 5000, workload.MixedMag)

	sa := rsum.NewState64(levels)
	sa.AddSliceVec(a)

	wire, err := sa.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	merged := rsum.NewState64(levels)
	merged.AddSliceVec(b)
	if err := merged.MergeBinary(wire); err != nil {
		t.Fatalf("MergeBinary: %v", err)
	}

	direct := rsum.NewState64(levels)
	direct.AddSliceVec(b)
	direct.Merge(&sa)
	if !merged.Equal(&direct) {
		t.Fatal("wire-merged state differs from directly merged state")
	}

	// Level mismatch must error, not panic.
	other := rsum.NewState64(levels + 1)
	enc, _ := other.MarshalBinary()
	if err := merged.MergeBinary(enc); err == nil {
		t.Fatal("MergeBinary accepted mismatched level count")
	}
	// Corrupt bytes must error.
	if err := merged.MergeBinary(wire[:len(wire)-1]); err == nil {
		t.Fatal("MergeBinary accepted truncated encoding")
	}
}
