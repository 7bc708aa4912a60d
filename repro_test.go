package repro_test

import (
	"math"
	"testing"
	"testing/quick"

	"repro"
	"repro/internal/workload"
)

func TestSumReproducible(t *testing.T) {
	vals := workload.Values64(1, 10000, workload.MixedMag)
	want := repro.Sum(vals)
	for seed := uint64(2); seed < 7; seed++ {
		p := append([]float64(nil), vals...)
		workload.Shuffle(seed, p)
		if got := repro.Sum(p); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Sum changed under permutation: %v vs %v", got, want)
		}
	}
}

func TestSumPaperExample(t *testing.T) {
	// Algorithm 1 of the paper.
	a := []float64{2.5e-16, 0.999999999999999, 2.5e-16}
	b := []float64{0.999999999999999, 2.5e-16, 2.5e-16}
	if (a[0]+a[1])+a[2] == (b[0]+b[1])+b[2] {
		t.Skip("premise broken")
	}
	if math.Float64bits(repro.Sum(a)) != math.Float64bits(repro.Sum(b)) {
		t.Error("repro.Sum is order-dependent")
	}
}

func TestSumLevelsAccuracy(t *testing.T) {
	vals := workload.Values64(3, 100000, workload.Exp1)
	exact := 0.0
	for _, v := range vals { // Exp(1) sums fit comfortably in float64 here
		exact += v
	}
	for l := 2; l <= 4; l++ {
		got := repro.SumLevels(vals, l)
		if math.Abs(got-exact) > 1e-3 {
			t.Errorf("L=%d: %v vs ≈%v", l, got, exact)
		}
	}
}

func TestSum32(t *testing.T) {
	vals := workload.Values32(5, 10000, workload.Uniform12)
	got := repro.Sum32(vals)
	if got < 10000 || got > 20000 {
		t.Errorf("Sum32 = %v", got)
	}
}

func TestAccumulatorMerge(t *testing.T) {
	vals := workload.Values64(7, 5000, workload.MixedMag)
	whole := repro.NewAccumulator(repro.DefaultLevels)
	for _, v := range vals {
		whole.Add(v)
	}
	a := repro.NewAccumulator(repro.DefaultLevels)
	b := repro.NewAccumulator(repro.DefaultLevels)
	for i, v := range vals {
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.MergeFrom(&b)
	if math.Float64bits(a.Value()) != math.Float64bits(whole.Value()) {
		t.Error("merge differs from sequential")
	}
}

func TestBufferedAccumulatorMatches(t *testing.T) {
	vals := workload.Values64(9, 5000, workload.Exp1)
	plain := repro.NewAccumulator(2)
	for _, v := range vals {
		plain.Add(v)
	}
	buf := repro.NewBufferedAccumulator(2, repro.BufferSizeFor(1))
	for _, v := range vals {
		buf.Add(v)
	}
	if math.Float64bits(buf.Value()) != math.Float64bits(plain.Value()) {
		t.Error("buffered accumulator differs")
	}
}

func TestGroupBySum(t *testing.T) {
	keys := workload.Keys(11, 50000, 100)
	vals := workload.Values64(12, 50000, workload.Uniform12)
	groups := repro.GroupBySum(keys, vals, nil)
	if len(groups) != 100 {
		t.Fatalf("groups = %d", len(groups))
	}
	// Sorted by key.
	for i := 1; i < len(groups); i++ {
		if groups[i-1].Key >= groups[i].Key {
			t.Fatal("groups not sorted by key")
		}
	}
	// Matches a map-based reference within rounding.
	ref := make(map[uint32]float64)
	for i, k := range keys {
		ref[k] += vals[i]
	}
	for _, g := range groups {
		if math.Abs(g.Sum-ref[g.Key]) > 1e-6 {
			t.Errorf("group %d: %v vs %v", g.Key, g.Sum, ref[g.Key])
		}
	}
}

func TestGroupBySumReproducibleAcrossConfigs(t *testing.T) {
	keys := workload.Keys(13, 30000, 512)
	vals := workload.Values64(14, 30000, workload.MixedMag)
	ref := repro.GroupBySum(keys, vals, nil)
	configs := []*repro.GroupByOptions{
		{Workers: 1},
		{Workers: 4},
		{Groups: 512},
		{Groups: 1 << 20}, // forces different depth/buffer choices
		{Groups: 1 << 30}, // an estimate far above the row count is capped by it
	}
	// Result 0 is the unbuffered reference: one accumulator per key.
	results := [][]repro.Group{accumulatorGroupBy(keys, vals)}
	for _, opt := range configs {
		results = append(results, repro.GroupBySum(keys, vals, opt))
	}
	for ci, got := range results {
		if len(got) != len(ref) {
			t.Fatalf("config %d: %d groups", ci, len(got))
		}
		for i := range got {
			if got[i].Key != ref[i].Key ||
				math.Float64bits(got[i].Sum) != math.Float64bits(ref[i].Sum) {
				t.Fatalf("config %d: group %d differs", ci, got[i].Key)
			}
		}
	}
	// And across permutations.
	pk := append([]uint32(nil), keys...)
	pv := append([]float64(nil), vals...)
	workload.ShufflePairs(99, pk, pv)
	got := repro.GroupBySum(pk, pv, nil)
	for i := range got {
		if math.Float64bits(got[i].Sum) != math.Float64bits(ref[i].Sum) {
			t.Fatal("permutation changed GroupBySum")
		}
	}
}

func TestGroupBySumProperty(t *testing.T) {
	f := func(seed uint64, rot uint16) bool {
		keys := workload.Keys(seed, 500, 17)
		vals := workload.Values64(seed+1, 500, workload.MixedMag)
		ref := repro.GroupBySum(keys, vals, nil)
		k := int(rot)%len(keys) + 1
		pk := append(append([]uint32(nil), keys[k:]...), keys[:k]...)
		pv := append(append([]float64(nil), vals[k:]...), vals[:k]...)
		got := repro.GroupBySum(pk, pv, nil)
		if len(got) != len(ref) {
			return false
		}
		for i := range got {
			if got[i] != ref[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestStateSerialization(t *testing.T) {
	acc := repro.NewAccumulator(2)
	acc.Add(1.5)
	acc.Add(2.5e-10)
	data, err := acc.State().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var st repro.State
	if err := st.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(st.Value()) != math.Float64bits(acc.Value()) {
		t.Error("serialized state value differs")
	}
}

func TestErrorBound(t *testing.T) {
	if repro.ErrorBound(1000, 2, 2) <= 0 {
		t.Error("bound not positive")
	}
	if repro.ErrorBound(1000, 3, 2) >= repro.ErrorBound(1000, 2, 2) {
		t.Error("bound not decreasing in L")
	}
}

func TestSpecialsThroughPublicAPI(t *testing.T) {
	if v := repro.Sum([]float64{1, math.Inf(1)}); !math.IsInf(v, 1) {
		t.Errorf("Sum with +Inf = %v", v)
	}
	if v := repro.Sum([]float64{math.Inf(1), math.Inf(-1)}); !math.IsNaN(v) {
		t.Errorf("Sum of ±Inf = %v", v)
	}
	if v := repro.Sum(nil); v != 0 {
		t.Errorf("Sum(nil) = %v", v)
	}
}

func TestDotProductPublic(t *testing.T) {
	if got := repro.DotProduct([]float64{1, 2}, []float64{3, 4}); got != 11 {
		t.Errorf("DotProduct = %v", got)
	}
	x := workload.Values64(20, 1000, workload.MixedMag)
	y := workload.Values64(21, 1000, workload.MixedMag)
	want := repro.DotProduct(x, y)
	px := append([]float64(nil), x...)
	py := append([]float64(nil), y...)
	workload.ShufflePairs(22, px, py)
	if math.Float64bits(repro.DotProduct(px, py)) != math.Float64bits(want) {
		t.Error("public DotProduct not permutation-stable")
	}
}
