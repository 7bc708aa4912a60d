package agg

import (
	"cmp"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/workload"
)

func refGroupSums(keys []uint32, vals []float64) map[uint32]*[]float64 {
	ref := make(map[uint32]*[]float64)
	for i, k := range keys {
		if ref[k] == nil {
			s := []float64{}
			ref[k] = &s
		}
		*ref[k] = append(*ref[k], vals[i])
	}
	return ref
}

func TestPartitionAndAggregateAllDepths(t *testing.T) {
	keys := workload.Keys(3, 50000, 1<<12)
	vals := workload.Values64(4, 50000, workload.Exp1)
	ref := refGroupSums(keys, vals)
	for _, depth := range []int{0, 1, 2} {
		for _, workers := range []int{1, 4} {
			entries := PartitionAndAggregate[float64, core.Sum64](
				keys, vals,
				func() core.Sum64 { return core.NewSum64(2) },
				Options{Depth: depth, Workers: workers, GroupHint: 1 << 12})
			if len(entries) != len(ref) {
				t.Fatalf("depth=%d w=%d: groups %d want %d", depth, workers, len(entries), len(ref))
			}
			for i := range entries {
				e := &entries[i]
				want := exact.SumFloat64(*ref[e.Key])
				got := e.Agg.Value()
				if math.Abs(got-want) > 1e-6*math.Abs(want)+1e-12 {
					t.Fatalf("depth=%d group %d: %v vs exact %v", depth, e.Key, got, want)
				}
			}
		}
	}
}

// TestReproAcrossEverything is the paper's headline claim: with
// reproducible payloads, the result is bit-identical across input
// permutations, partitioning depths, buffer sizes, and worker counts.
func TestReproAcrossEverything(t *testing.T) {
	const n = 30000
	keys := workload.Keys(5, n, 1000)
	vals := workload.Values64(6, n, workload.MixedMag)

	canonical := map[uint32]uint64{}
	first := true
	check := func(tag string, entries []Entry[core.Sum64]) {
		t.Helper()
		got := map[uint32]uint64{}
		for i := range entries {
			got[entries[i].Key] = math.Float64bits(entries[i].Agg.Value())
		}
		if first {
			canonical = got
			first = false
			return
		}
		if len(got) != len(canonical) {
			t.Fatalf("%s: group count %d != %d", tag, len(got), len(canonical))
		}
		for k, v := range canonical {
			if got[k] != v {
				t.Fatalf("%s: group %d bits %x != %x", tag, k, got[k], v)
			}
		}
	}

	newSum := func() core.Sum64 { return core.NewSum64(2) }
	for _, depth := range []int{0, 1, 2} {
		for _, workers := range []int{1, 2, 7} {
			entries := PartitionAndAggregate[float64, core.Sum64](keys, vals, newSum,
				Options{Depth: depth, Workers: workers})
			check("sum64", entries)
		}
	}
	// Buffered accumulators with various buffer sizes must agree bit-wise.
	for _, bsz := range []int{4, 64, 1024} {
		for _, depth := range []int{0, 1} {
			entries := PartitionAndAggregate[float64, core.Buffered64](keys, vals,
				func() core.Buffered64 { return core.NewBuffered64(2, bsz) },
				Options{Depth: depth, Workers: 3})
			check("buffered bsz="+itoa(bsz), flushed(entries))
		}
	}
	// Permuted input must agree bit-wise.
	pk := append([]uint32(nil), keys...)
	pv := append([]float64(nil), vals...)
	workload.ShufflePairs(99, pk, pv)
	entries := PartitionAndAggregate[float64, core.Sum64](pk, pv, newSum, Options{Depth: 1})
	check("permuted", entries)
}

// flushed drains each group's summation buffer into a plain Sum64.
func flushed(entries []Entry[core.Buffered64]) []Entry[core.Sum64] {
	out := make([]Entry[core.Sum64], len(entries))
	for i := range entries {
		s := core.NewSum64(2)
		entries[i].Agg.MergeIntoSum(&s)
		out[i] = Entry[core.Sum64]{Key: entries[i].Key, Agg: s}
	}
	return out
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

// TestFloatNotReproducible documents the motivation: the float64
// baseline differs across permutations (with high probability on this
// adversarial workload).
func TestFloatNotReproducible(t *testing.T) {
	const n = 100000
	keys := make([]uint32, n)
	vals := make([]float64, n)
	rng := workload.NewRNG(7)
	for i := range vals {
		keys[i] = 0
		vals[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(40))
	}
	run := func(k []uint32, v []float64) uint64 {
		entries := PartitionAndAggregate[float64, F64](k, v,
			func() F64 { return 0 }, Options{Depth: 0, Workers: 1})
		return math.Float64bits(float64(entries[0].Agg))
	}
	base := run(keys, vals)
	diff := false
	for trial := uint64(0); trial < 10 && !diff; trial++ {
		pk := append([]uint32(nil), keys...)
		pv := append([]float64(nil), vals...)
		workload.ShufflePairs(trial+100, pk, pv)
		if run(pk, pv) != base {
			diff = true
		}
	}
	if !diff {
		t.Skip("float sum happened to be permutation-stable on this input")
	}
}

func TestBufferSizeModel(t *testing.T) {
	// Eq. 4 sanity: 16 groups, no partitioning, float32 → bszmax.
	if got := BufferSize(16, 1, 4); got != MaxBufferSize {
		t.Errorf("16 groups: bsz = %d, want %d", got, MaxBufferSize)
	}
	// More groups → smaller buffers (monotone non-increasing).
	prev := MaxBufferSize + 1
	for g := 16; g <= 1<<24; g *= 4 {
		b := BufferSize(g, 1, 8)
		if b > prev {
			t.Errorf("bsz not monotone at %d groups: %d > %d", g, b, prev)
		}
		if b < MinBufferSize {
			t.Errorf("bsz %d below the floor at %d groups", b, g)
		}
		prev = b
	}
	// Partitioning with fan-out F divides the groups per partition.
	if BufferSize(1<<16, 256, 8) != BufferSize(1<<8, 1, 8) {
		t.Error("fan-out does not divide group count")
	}
	for depth, fanout := range []int{1, 256, 65536} {
		if BufferSizeAt(1<<20, depth, 8) != BufferSize(1<<20, fanout, 8) {
			t.Errorf("BufferSizeAt depth %d is not BufferSize at fan-out %d", depth, fanout)
		}
	}
	// Power-of-two outputs.
	for _, g := range []int{100, 1000, 30000} {
		b := BufferSize(g, 1, 8)
		if b&(b-1) != 0 {
			t.Errorf("bsz %d not a power of two", b)
		}
	}
	// The paper's example (Fig. 8): at 1024 groups, double precision,
	// performance drops for buffers > 2^7; the model must not exceed it.
	if b := BufferSize(1024, 1, 8); b > 128 {
		t.Errorf("1024 groups double: bsz = %d, model should cap at 128", b)
	}
}

func TestDepthThresholds(t *testing.T) {
	// The mechanism: depth counts the thresholds at or below ngroups.
	th := DepthThresholds{1 << 10, 1 << 18}
	cases := []struct {
		groups, depth int
	}{
		{1, 0}, {1 << 9, 0}, {1 << 10, 1}, {1 << 17, 1}, {1 << 18, 2}, {1 << 24, 2},
	}
	for _, c := range cases {
		if got := th.Depth(c.groups); got != c.depth {
			t.Errorf("Depth(%d) = %d, want %d", c.groups, got, c.depth)
		}
	}
	// The package defaults are monotone and start at depth 0.
	for _, def := range []DepthThresholds{ThresholdsBuiltin, ThresholdsReproUnbuffered, ThresholdsReproBuffered} {
		if def.Depth(1) != 0 {
			t.Error("default thresholds: depth at 1 group must be 0")
		}
		prev := 0
		for g := 1; g <= 1<<28; g *= 2 {
			d := def.Depth(g)
			if d < prev {
				t.Error("default thresholds not monotone")
			}
			prev = d
		}
	}
}

// TestEachPart: with no parts no worker starts, and with more workers
// than parts every index is visited exactly once.
func TestEachPart(t *testing.T) {
	EachPart(0, 4, func() func(p int) {
		t.Error("start called for n = 0")
		return func(int) {}
	})
	const n = 3
	var visits [n]atomic.Int32
	var starts atomic.Int32
	EachPart(n, 8, func() func(p int) {
		starts.Add(1)
		return func(p int) { visits[p].Add(1) }
	})
	for p := range visits {
		if v := visits[p].Load(); v != 1 {
			t.Errorf("index %d visited %d times", p, v)
		}
	}
	if s := starts.Load(); s > n {
		t.Errorf("%d workers started for %d parts", s, n)
	}
}

func TestEmptyInput(t *testing.T) {
	entries := PartitionAndAggregate[float64, F64](nil, nil,
		func() F64 { return 0 }, Options{Depth: 0})
	if len(entries) != 0 {
		t.Errorf("empty input produced %d entries", len(entries))
	}
	entries = PartitionAndAggregate[float64, F64](nil, nil,
		func() F64 { return 0 }, Options{Depth: 1})
	if len(entries) != 0 {
		t.Errorf("empty input depth 1 produced %d entries", len(entries))
	}
}

func TestSpecialValuesThroughOperator(t *testing.T) {
	keys := []uint32{1, 1, 2, 2, 3}
	vals := []float64{1, math.NaN(), math.Inf(1), 5, -2}
	entries := PartitionAndAggregate[float64, core.Sum64](keys, vals,
		func() core.Sum64 { return core.NewSum64(2) }, Options{Depth: 0, Workers: 2})
	slices.SortFunc(entries, func(a, b Entry[core.Sum64]) int { return cmp.Compare(a.Key, b.Key) })
	if len(entries) != 3 {
		t.Fatalf("groups = %d", len(entries))
	}
	if v := entries[0].Agg.Value(); !math.IsNaN(v) {
		t.Errorf("group 1 = %v, want NaN", v)
	}
	if v := entries[1].Agg.Value(); !math.IsInf(v, 1) {
		t.Errorf("group 2 = %v, want +Inf", v)
	}
	if v := entries[2].Agg.Value(); v != -2 {
		t.Errorf("group 3 = %v, want −2", v)
	}
}

// TestSkewedKeysReproducible: the paper treats skew handling as
// orthogonal (Section VI-A cites known techniques); reproducibility
// must hold regardless — heavy-hitter groups just concentrate values
// into fewer accumulators.
func TestSkewedKeysReproducible(t *testing.T) {
	keys := workload.ZipfKeys(41, 30000, 1024, 1.3)
	vals := workload.Values64(42, 30000, workload.MixedMag)
	newSum := func() core.Sum64 { return core.NewSum64(2) }
	bits := func(entries []Entry[core.Sum64]) map[uint32]uint64 {
		m := make(map[uint32]uint64)
		for i := range entries {
			m[entries[i].Key] = math.Float64bits(entries[i].Agg.Value())
		}
		return m
	}
	ref := bits(PartitionAndAggregate[float64, core.Sum64](keys, vals, newSum,
		Options{Depth: 0, Workers: 1}))
	for _, depth := range []int{0, 1} {
		for _, workers := range []int{2, 5} {
			got := bits(PartitionAndAggregate[float64, core.Sum64](keys, vals, newSum,
				Options{Depth: depth, Workers: workers}))
			if len(got) != len(ref) {
				t.Fatalf("depth=%d workers=%d: group count differs", depth, workers)
			}
			for k, v := range ref {
				if got[k] != v {
					t.Fatalf("depth=%d workers=%d: skewed group %d differs", depth, workers, k)
				}
			}
		}
	}
	// Buffered under skew: the hottest group flushes constantly, cold
	// groups never do — bits must still match.
	gotBuf := PartitionAndAggregate[float64, core.Buffered64](keys, vals,
		func() core.Buffered64 { return core.NewBuffered64(2, 64) },
		Options{Depth: 0, Workers: 3})
	got := bits(flushed(gotBuf))
	for k, v := range ref {
		if got[k] != v {
			t.Fatalf("buffered skewed group %d differs", k)
		}
	}
}
