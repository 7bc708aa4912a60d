package sqlagg

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/workload"
)

// statesOf returns one one-spec state (NewStates) per kind, all at
// levels, with xs added to each a row at a time.
func statesOf(t testing.TB, levels int, xs []float64, kinds ...AggKind) []AggState {
	t.Helper()
	specs := make([]AggSpec, len(kinds))
	for i, k := range kinds {
		specs[i] = AggSpec{Kind: k, Levels: levels}
	}
	states, err := NewStates(specs)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range xs {
		for _, st := range states {
			st.Add(x)
		}
	}
	return states
}

// mergeInto folds the encoding of src into dst, as a shuffle does.
func mergeInto(t testing.TB, dst, src AggState) {
	t.Helper()
	enc, err := src.AppendBinary(nil)
	if err == nil {
		err = dst.MergeBinary(enc)
	}
	if err != nil {
		t.Fatal(err)
	}
}

func TestAvg(t *testing.T) {
	a := statesOf(t, 2, []float64{1, 2, 3, 4}, AggAvg, AggCount)
	if v := a[0].Value(); v != 2.5 {
		t.Errorf("AVG = %v", v)
	}
	if a[1].Value() != 4 {
		t.Errorf("COUNT = %v", a[1].Value())
	}
	empty := statesOf(t, 2, nil, AggAvg)[0]
	if !math.IsNaN(empty.Value()) {
		t.Error("AVG of empty should be NaN (SQL NULL)")
	}
}

func TestAvgMerge(t *testing.T) {
	xs := workload.Values64(1, 1000, workload.Exp1)
	whole := statesOf(t, 2, xs, AggAvg)[0]
	var as, bs []float64
	for i, x := range xs {
		if i%3 == 0 {
			as = append(as, x)
		} else {
			bs = append(bs, x)
		}
	}
	a, b := statesOf(t, 2, as, AggAvg)[0], statesOf(t, 2, bs, AggAvg)[0]
	mergeInto(t, a, b)
	if math.Float64bits(a.Value()) != math.Float64bits(whole.Value()) {
		t.Error("merged AVG differs from sequential")
	}
}

func TestVarianceKnownValues(t *testing.T) {
	v := statesOf(t, 3, []float64{2, 4, 4, 4, 5, 5, 7, 9}, AggVarPop, AggStddevPop, AggVarSamp)
	if got := v[0].Value(); math.Abs(got-4) > 1e-12 {
		t.Errorf("VAR_POP = %v, want 4", got)
	}
	if got := v[1].Value(); math.Abs(got-2) > 1e-12 {
		t.Errorf("STDDEV_POP = %v, want 2", got)
	}
	if got := v[2].Value(); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("VAR_SAMP = %v, want 32/7", got)
	}
	one := statesOf(t, 2, []float64{5}, AggVarSamp, AggVarPop)
	if !math.IsNaN(one[0].Value()) {
		t.Error("VAR_SAMP of one row should be NaN")
	}
	if one[1].Value() != 0 {
		t.Error("VAR_POP of one row should be 0")
	}
}

func TestVariancePermutationStable(t *testing.T) {
	xs := workload.Values64(3, 2000, workload.MixedMag)
	want := math.Float64bits(statesOf(t, 2, xs, AggVarPop)[0].Value())
	for seed := uint64(10); seed < 14; seed++ {
		p := append([]float64(nil), xs...)
		workload.Shuffle(seed, p)
		if math.Float64bits(statesOf(t, 2, p, AggVarPop)[0].Value()) != want {
			t.Fatalf("VAR_POP changed under permutation %d", seed)
		}
	}
}

func TestVarianceNonNegativeProperty(t *testing.T) {
	f := func(seed uint64) bool {
		xs := workload.Values64(seed, 200, workload.MixedMag)
		v := statesOf(t, 2, xs, AggVarPop, AggVarSamp)
		return v[0].Value() >= 0 && v[1].Value() >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestVarianceMergeMatches(t *testing.T) {
	f := func(seed uint64, cut uint8) bool {
		xs := workload.Values64(seed, 300, workload.Exp1)
		k := int(cut) % len(xs)
		whole := statesOf(t, 2, xs, AggVarSamp)[0]
		a, b := statesOf(t, 2, xs[:k], AggVarSamp)[0], statesOf(t, 2, xs[k:], AggVarSamp)[0]
		mergeInto(t, a, b)
		return math.Float64bits(a.Value()) == math.Float64bits(whole.Value())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestDotProduct(t *testing.T) {
	x := []float64{1, 2, 3}
	y := []float64{4, 5, 6}
	if got := DotProductExact(x, y, 2); got != 32 {
		t.Errorf("DotProductExact = %v", got)
	}
}

func TestDotProductExactBeatsPlain(t *testing.T) {
	// Ill-conditioned dot product: large terms that cancel, leaving a
	// tiny residual carried entirely by the product tails.
	n := 2000
	x := make([]float64, 2*n)
	y := make([]float64, 2*n)
	r := workload.NewRNG(21)
	for i := 0; i < n; i++ {
		a := 1 + r.Float64()
		b := 1e8 * (1 + r.Float64())
		x[2*i], y[2*i] = a, b
		x[2*i+1], y[2*i+1] = -a, b // exact cancellation of the heads
	}
	// Exact result is 0; the error of each method is its |result|. The
	// plain method rounds each product once and sums the rounded
	// products reproducibly.
	plainSum := core.NewSum64(3)
	for i := range x {
		plainSum.Add(x[i] * y[i])
	}
	plain := math.Abs(plainSum.Value())
	exactDP := math.Abs(DotProductExact(x, y, 3))
	if exactDP > plain {
		t.Errorf("DotProductExact error %g worse than plain %g", exactDP, plain)
	}
	if exactDP != 0 {
		t.Errorf("DotProductExact = %g, want exactly 0 (tails cancel too)", exactDP)
	}
}

func TestDotProductExactPermutationStable(t *testing.T) {
	xs := workload.Values64(22, 2000, workload.MixedMag)
	ys := workload.Values64(23, 2000, workload.MixedMag)
	want := math.Float64bits(DotProductExact(xs, ys, 2))
	px := append([]float64(nil), xs...)
	py := append([]float64(nil), ys...)
	workload.ShufflePairs(24, px, py)
	if math.Float64bits(DotProductExact(px, py, 2)) != want {
		t.Error("exact dot product changed under permutation")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	DotProductExact([]float64{1}, []float64{1, 2}, 2)
}

func TestWindowTotals(t *testing.T) {
	keys := []uint32{1, 2, 1, 2, 3}
	vals := []float64{10, 20, 30, 40, 50}
	out := WindowTotals(keys, vals, 2)
	want := []float64{40, 60, 40, 60, 50}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("WindowTotals = %v, want %v", out, want)
		}
	}
	// Reproducible across row permutations (per-row totals follow keys).
	keys2 := []uint32{3, 2, 1, 2, 1}
	vals2 := []float64{50, 40, 30, 20, 10}
	out2 := WindowTotals(keys2, vals2, 2)
	if math.Float64bits(out2[2]) != math.Float64bits(out[0]) {
		t.Error("partition total changed under permutation")
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	WindowTotals([]uint32{1}, []float64{1, 2}, 2)
}
