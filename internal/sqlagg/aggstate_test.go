package sqlagg

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// allSpecs returns one spec of every kind in the catalog.
func allSpecs(levels int) []AggSpec {
	return []AggSpec{
		{Kind: AggSum, Levels: levels},
		{Kind: AggCount, Levels: levels},
		{Kind: AggAvg, Levels: levels},
		{Kind: AggVarPop, Levels: levels},
		{Kind: AggVarSamp, Levels: levels},
		{Kind: AggStddevPop, Levels: levels},
		{Kind: AggStddevSamp, Levels: levels},
		{Kind: AggMin, Levels: levels},
		{Kind: AggMax, Levels: levels},
	}
}

func TestAggSpecValidate(t *testing.T) {
	good := AggSpec{Kind: AggSum, Levels: 3, Col: 7}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []AggSpec{
		{Kind: 0},
		{Kind: 99},
		{Kind: AggSum, Levels: -1},
		{Kind: AggSum, Levels: core.MaxLevels + 1},
		{Kind: AggSum, Col: -1},
		{Kind: AggSum, Col: maxSpecCol + 1},
	} {
		if err := bad.Validate(); !errors.Is(err, ErrBadSpec) {
			t.Errorf("Validate(%+v) = %v, want ErrBadSpec", bad, err)
		}
	}
	if (AggSpec{Kind: AggAvg}).ResolvedLevels() != core.DefaultLevels {
		t.Error("Levels 0 should resolve to the default")
	}
}

func TestAggKindString(t *testing.T) {
	for k, want := range map[AggKind]string{
		AggSum: "SUM", AggCount: "COUNT", AggAvg: "AVG",
		AggVarPop: "VAR_POP", AggStddevSamp: "STDDEV_SAMP",
		AggMin: "MIN", AggMax: "MAX",
	} {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", byte(k), k, want)
		}
	}
	if AggKind(200).String() != "AggKind(200)" {
		t.Errorf("unregistered kind String() = %q", AggKind(200).String())
	}
	for _, sp := range allSpecs(0) {
		if k, ok := KindByName(sp.Kind.String()); !ok || k != sp.Kind {
			t.Errorf("KindByName(%q) = %v, %v", sp.Kind, k, ok)
		}
	}
	for _, name := range []string{"", "AggKind(0)", "sum", "COVAR_POP"} {
		if k, ok := KindByName(name); ok {
			t.Errorf("KindByName(%q) = %v, want no kind", name, k)
		}
	}
}

func TestSpecsWireRoundTrip(t *testing.T) {
	specs := []AggSpec{
		{Kind: AggSum, Levels: 3, Col: 2},
		{Kind: AggCount},
		{Kind: AggAvg, Col: 65535},
	}
	blob, err := EncodeSpecs(nil, specs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSpecs(blob)
	if err != nil {
		t.Fatal(err)
	}
	want := []AggSpec{
		{Kind: AggSum, Levels: 3, Col: 2},
		{Kind: AggCount, Levels: core.DefaultLevels},
		{Kind: AggAvg, Levels: core.DefaultLevels, Col: 65535},
	}
	if len(got) != len(want) {
		t.Fatalf("decoded %d specs", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("spec %d: %+v, want %+v", i, got[i], want[i])
		}
	}
	// Implicit and explicit default levels must encode identically:
	// the proc handshake digests this blob.
	explicit, err := EncodeSpecs(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blob, explicit) {
		t.Error("Levels 0 and explicit default encode differently")
	}
}

func TestDecodeSpecsRejectsMalformed(t *testing.T) {
	good, _ := EncodeSpecs(nil, []AggSpec{{Kind: AggSum}})
	for name, blob := range map[string][]byte{
		"empty":      {},
		"short":      {1},
		"zero count": {0, 0},
		"truncated":  good[:len(good)-1],
		"trailing":   append(append([]byte{}, good...), 0),
		"bad kind":   {1, 0, 99, 2, 0, 0},
		"bad levels": {1, 0, byte(AggSum), 7, 0, 0},
		"huge count": {255, 255},
	} {
		if _, err := DecodeSpecs(blob); !errors.Is(err, ErrBadSpec) {
			t.Errorf("%s: DecodeSpecs = %v, want ErrBadSpec", name, err)
		}
	}
}

// newState returns the one-spec state of spec.
func newState(t testing.TB, spec AggSpec) AggState {
	t.Helper()
	states, err := NewStates([]AggSpec{spec})
	if err != nil {
		t.Fatal(err)
	}
	return states[0]
}

// TestAggStateRoundTrip checks, for every kind: encode → merge into an
// empty state → Value is bit-identical, EncodedSize matches the
// appended length and is data-independent, and AppendBinary is
// append-only.
func TestAggStateRoundTrip(t *testing.T) {
	xs := workload.Values64(3, 500, workload.MixedMag)
	for _, spec := range allSpecs(3) {
		st := newState(t, spec)
		emptySize := st.EncodedSize()
		for _, x := range xs {
			st.Add(x)
		}
		if st.EncodedSize() != emptySize {
			t.Errorf("%s: EncodedSize depends on data", spec.Kind)
		}
		prefix := []byte{0xAA, 0xBB}
		enc, err := st.AppendBinary(append([]byte{}, prefix...))
		if err != nil {
			t.Fatalf("%s: AppendBinary: %v", spec.Kind, err)
		}
		if !bytes.Equal(enc[:2], prefix) {
			t.Fatalf("%s: AppendBinary clobbered the prefix", spec.Kind)
		}
		body := enc[2:]
		if len(body) != st.EncodedSize() {
			t.Fatalf("%s: encoded %d bytes, EncodedSize %d", spec.Kind, len(body), st.EncodedSize())
		}
		back := newState(t, spec)
		if err := back.MergeBinary(body); err != nil {
			t.Fatalf("%s: MergeBinary: %v", spec.Kind, err)
		}
		if math.Float64bits(back.Value()) != math.Float64bits(st.Value()) {
			t.Errorf("%s: round-trip Value %v vs %v", spec.Kind, back.Value(), st.Value())
		}
		re, err := back.AppendBinary(nil)
		if err != nil || !bytes.Equal(re, body) {
			t.Errorf("%s: re-encoding differs (err=%v)", spec.Kind, err)
		}
	}
}

// TestAggStateSplitMerge checks the distributed contract: splitting the
// input, shipping encoded partials and merging them in any order is
// bit-identical to sequential accumulation.
func TestAggStateSplitMerge(t *testing.T) {
	xs := workload.Values64(7, 2000, workload.MixedMag)
	for _, spec := range allSpecs(2) {
		whole := newState(t, spec)
		for _, x := range xs {
			whole.Add(x)
		}
		parts := make([]AggState, 4)
		for i := range parts {
			parts[i] = newState(t, spec)
		}
		for i, x := range xs {
			parts[i%4].Add(x)
		}
		for _, order := range [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}} {
			wire := newState(t, spec)
			for _, i := range order {
				enc, err := parts[i].AppendBinary(nil)
				if err != nil {
					t.Fatal(err)
				}
				if err := wire.MergeBinary(enc); err != nil {
					t.Fatalf("%s: MergeBinary: %v", spec.Kind, err)
				}
			}
			if wb, mb := math.Float64bits(whole.Value()), math.Float64bits(wire.Value()); wb != mb {
				t.Errorf("%s: sequential %x, merged in order %v %x", spec.Kind, wb, order, mb)
			}
		}
	}
}

// TestAggStateMergeMismatch: an encoding of another kind or level count
// is rejected at the trust boundary.
func TestAggStateMergeMismatch(t *testing.T) {
	for name, pair := range map[string][2]AggSpec{
		"sum levels":   {{Kind: AggSum, Levels: 2}, {Kind: AggSum, Levels: 3}},
		"sum vs cnt":   {{Kind: AggSum, Levels: 2}, {Kind: AggCount}},
		"cnt vs sum":   {{Kind: AggCount}, {Kind: AggSum, Levels: 2}},
		"avg levels":   {{Kind: AggAvg, Levels: 2}, {Kind: AggAvg, Levels: 3}},
		"avg vs var":   {{Kind: AggAvg, Levels: 2}, {Kind: AggVarPop, Levels: 2}},
		"var levels":   {{Kind: AggVarPop}, {Kind: AggVarPop, Levels: 3}},
		"min vs sum":   {{Kind: AggMin}, {Kind: AggSum, Levels: 1}},
		"avg1 vs sum2": {{Kind: AggAvg, Levels: 1}, {Kind: AggSum, Levels: 2}},
	} {
		enc, err := newState(t, pair[1]).AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := newState(t, pair[0]).MergeBinary(enc); !errors.Is(err, ErrBadState) {
			t.Errorf("%s: MergeBinary = %v, want ErrBadState", name, err)
		}
	}
}

func TestCountStateCountsRows(t *testing.T) {
	st := newState(t, AggSpec{Kind: AggCount})
	for _, x := range []float64{math.NaN(), math.Inf(1), 0, -5} {
		st.Add(x)
	}
	if st.Value() != 4 {
		t.Errorf("COUNT = %v", st.Value())
	}
	// Negative counts are rejected at the trust boundary.
	neg := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}
	if err := st.MergeBinary(neg); !errors.Is(err, ErrBadState) {
		t.Errorf("negative count decode = %v", err)
	}
}

func TestMinMaxSemantics(t *testing.T) {
	mn, mx := newState(t, AggSpec{Kind: AggMin}), newState(t, AggSpec{Kind: AggMax})
	if !math.IsNaN(mn.Value()) || !math.IsNaN(mx.Value()) {
		t.Error("empty MIN/MAX should be NaN (SQL NULL)")
	}
	for _, x := range []float64{3, -7, 2} {
		mn.Add(x)
		mx.Add(x)
	}
	if mn.Value() != -7 || mx.Value() != 3 {
		t.Errorf("MIN=%v MAX=%v", mn.Value(), mx.Value())
	}
	// Signed-zero ties are deterministic: MIN picks −0, MAX picks +0.
	zmin, zmax := newState(t, AggSpec{Kind: AggMin}), newState(t, AggSpec{Kind: AggMax})
	for _, x := range []float64{0, math.Copysign(0, -1)} {
		zmin.Add(x)
		zmax.Add(x)
	}
	if !math.Signbit(zmin.Value()) || math.Signbit(zmax.Value()) {
		t.Error("signed-zero tie not canonical")
	}
	// NaN inputs absorb, and any NaN payload encodes canonically.
	nanA, nanB := newState(t, AggSpec{Kind: AggMax}), newState(t, AggSpec{Kind: AggMax})
	nanA.Add(math.NaN())
	nanA.Add(5)
	nanB.Add(math.Float64frombits(0x7FF0000000000042)) // a different NaN payload
	if !math.IsNaN(nanA.Value()) {
		t.Error("NaN did not absorb MAX")
	}
	ea, _ := nanA.AppendBinary(nil)
	eb, _ := nanB.AppendBinary(nil)
	if !bytes.Equal(ea, eb) {
		t.Error("NaN payloads encode non-canonically")
	}
}

func TestMinMaxDecodeRejectsMalformed(t *testing.T) {
	st := newState(t, AggSpec{Kind: AggMin})
	nonCanonicalNaN := make([]byte, 9)
	nonCanonicalNaN[0] = 1
	for i := 1; i < 9; i++ {
		nonCanonicalNaN[i] = 0xFF
	}
	emptyNonzero := make([]byte, 9)
	emptyNonzero[3] = 1
	for name, blob := range map[string][]byte{
		"short":             {1, 0},
		"long":              make([]byte, 10),
		"bad flag":          append([]byte{2}, make([]byte, 8)...),
		"non-canonical NaN": nonCanonicalNaN,
		"empty nonzero":     emptyNonzero,
	} {
		if err := st.MergeBinary(blob); !errors.Is(err, ErrBadState) {
			t.Errorf("%s: decode = %v, want ErrBadState", name, err)
		}
	}
}

// TestSumStateMatchesCoreSum pins the SUM state to the engine-side
// accumulator: the two stacks must produce bit-identical sums for the
// distributed Q1 equivalence to hold.
func TestSumStateMatchesCoreSum(t *testing.T) {
	xs := workload.Values64(11, 3000, workload.MixedMag)
	st := newState(t, AggSpec{Kind: AggSum, Levels: 2})
	acc := core.NewSum64(2)
	for _, x := range xs {
		st.Add(x)
		acc.Add(x)
	}
	if math.Float64bits(st.Value()) != math.Float64bits(acc.Value()) {
		t.Fatalf("SUM state %v vs core.Sum64 %v", st.Value(), acc.Value())
	}
}

func TestTupleSize(t *testing.T) {
	specs := []AggSpec{{Kind: AggSum, Levels: 2}, {Kind: AggCount}, {Kind: AggAvg, Levels: 2}}
	got, err := TupleSize(specs)
	if err != nil {
		t.Fatal(err)
	}
	// SUM: 20+2·16 = 52; COUNT: 8; AVG: 52+8 = 60.
	if want := 52 + 8 + 60; got != want {
		t.Errorf("TupleSize = %d, want %d", got, want)
	}
	if _, err := TupleSize(nil); !errors.Is(err, ErrBadSpec) {
		t.Error("TupleSize(nil) should fail")
	}
	if _, err := NewStates(make([]AggSpec, maxSpecs+1)); !errors.Is(err, ErrBadSpec) {
		t.Error("NewStates over limit should fail")
	}
}

// TestTupleSizeAllocatesNothing: admission control prices every query,
// cache hits included, so pricing reads the catalog without building a
// state.
func TestTupleSizeAllocatesNothing(t *testing.T) {
	specs := q1Catalog(2)
	var size int
	allocs := testing.AllocsPerRun(100, func() { size, _ = TupleSize(specs) })
	if allocs != 0 || size != 396 {
		t.Errorf("TupleSize(Q1) = %d in %v allocations, want 396 in 0", size, allocs)
	}
}
