package floatbits

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExponent64(t *testing.T) {
	cases := []struct {
		x    float64
		want int
	}{
		{1.0, 0},
		{1.5, 0},
		{1.9999999, 0},
		{2.0, 1},
		{0.5, -1},
		{0.75, -1},
		{3.0, 1},
		{4.0, 2},
		{-4.0, 2},
		{-0.25, -2},
		{1024.0, 10},
		{math.MaxFloat64, 1023},
		{math.SmallestNonzeroFloat64, -1074},
		{0x1p-1022, -1022},      // smallest normal
		{0x1p-1023, -1023},      // subnormal
		{0x1.8p-1030, -1030},    // subnormal with several bits
		{2.5e-16, -52},          // value from Algorithm 1 in the paper
		{0.999999999999999, -1}, // value from Algorithm 1 in the paper
	}
	for _, c := range cases {
		if got := Exponent64(c.x); got != c.want {
			t.Errorf("Exponent64(%g) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestExponent32(t *testing.T) {
	cases := []struct {
		x    float32
		want int
	}{
		{1.0, 0},
		{2.0, 1},
		{0.5, -1},
		{-3.0, 1},
		{math.MaxFloat32, 127},
		{math.SmallestNonzeroFloat32, -149},
		{0x1p-126, -126},
		{0x1p-127, -127},
	}
	for _, c := range cases {
		if got := Exponent32(c.x); got != c.want {
			t.Errorf("Exponent32(%g) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestExponent64MatchesFrexp(t *testing.T) {
	// Property: Exponent64 agrees with math.Frexp on finite non-zero values.
	f := func(x float64) bool {
		if x == 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		_, e := math.Frexp(x)
		return Exponent64(x) == e-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestPow2_64(t *testing.T) {
	for e := -1022; e <= 1023; e++ {
		want := math.Ldexp(1, e)
		if got := Pow2_64(e); got != want {
			t.Fatalf("Pow2_64(%d) = %g, want %g", e, got, want)
		}
	}
	// Subnormal powers of two.
	for e := -1074; e <= -1023; e++ {
		want := math.Ldexp(1, e)
		if got := Pow2_64(e); got != want {
			t.Fatalf("Pow2_64(%d) = %g, want %g (subnormal)", e, got, want)
		}
	}
}

func TestPow2_32(t *testing.T) {
	for e := -126; e <= 127; e++ {
		want := float32(math.Ldexp(1, e))
		if got := Pow2_32(e); got != want {
			t.Fatalf("Pow2_32(%d) = %g, want %g", e, got, want)
		}
	}
	for e := -149; e <= -127; e++ {
		want := float32(math.Ldexp(1, e))
		if got := Pow2_32(e); got != want {
			t.Fatalf("Pow2_32(%d) = %g, want %g (subnormal)", e, got, want)
		}
	}
}

func TestPow2PanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pow2_64(2000) did not panic")
		}
	}()
	Pow2_64(2000)
}

func TestExtractor64(t *testing.T) {
	for _, e := range []int{-960, -40, 0, 40, 80, 1000} {
		want := 1.5 * math.Ldexp(1, e)
		if got := Extractor64(e); got != want {
			t.Errorf("Extractor64(%d) = %g, want %g", e, got, want)
		}
		if Pow2_64(Exponent64(Extractor64(e))) != Pow2_64(e) {
			t.Errorf("ufp(Extractor64(%d)) != 2^%d", e, e)
		}
	}
}

func TestExtractor32(t *testing.T) {
	for _, e := range []int{-108, -18, 0, 18, 126} {
		want := float32(1.5 * math.Ldexp(1, e))
		if got := Extractor32(e); got != want {
			t.Errorf("Extractor32(%d) = %g, want %g", e, got, want)
		}
	}
}

func TestGridCeilFloor(t *testing.T) {
	cases := []struct {
		e, w, ceil int
	}{
		{0, 40, 0},
		{1, 40, 40},
		{39, 40, 40},
		{40, 40, 40},
		{41, 40, 80},
		{-1, 40, 0},
		{-40, 40, -40},
		{-41, 40, -40},
		{-79, 40, -40},
		{17, 18, 18},
		{-17, 18, 0},
	}
	for _, c := range cases {
		if got := GridCeil(c.e, c.w); got != c.ceil {
			t.Errorf("GridCeil(%d,%d) = %d, want %d", c.e, c.w, got, c.ceil)
		}
	}
}

func TestGridProperties(t *testing.T) {
	f := func(e int16, wsel bool) bool {
		w := W64
		if wsel {
			w = W32
		}
		c := GridCeil(int(e), w)
		return c%w == 0 && c >= int(e) && c-int(e) < w
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestExtractorSplitDeterministic verifies that rsum's split of a value
// against a fixed extractor, q = (b ⊕ ext) ⊖ ext with remainder b − q,
// is a pure function of the value, by comparing against a bit-level
// reference implementation of round-to-nearest-even quantization to
// multiples of ulp(ext).
func TestExtractorSplitDeterministic(t *testing.T) {
	ext := Extractor64(0)
	ulp := Pow2_64(-MantBits64)
	ref := func(b float64) float64 {
		// round b/ulp to nearest even integer, then scale back
		s := b / ulp // exact: division by power of two
		fl := math.Floor(s)
		diff := s - fl
		switch {
		case diff > 0.5:
			fl++
		case diff == 0.5:
			if math.Mod(fl, 2) != 0 {
				fl++
			}
		}
		return fl * ulp
	}
	vals := []float64{
		0, ulp / 2, -ulp / 2, ulp, 1.5 * ulp, 2.5 * ulp, -2.5 * ulp,
		3.5 * ulp, 0.49999 * ulp, 0.50001 * ulp, 100.25 * ulp,
	}
	for _, b := range vals {
		q := (b + ext) - ext
		r := b - q
		if want := ref(b); q != want {
			t.Errorf("split of %g: q=%g, reference RNE quantization %g", b, q, want)
		}
		if q+r != b {
			t.Errorf("split of %g: q+r != b", b)
		}
	}
}

func TestTopLevelExp64(t *testing.T) {
	// A value with exponent eb must satisfy |b| < 2^(W−1)·ulp(E_top),
	// i.e. eb + 1 ≤ e_top − m + W − 1.
	for eb := -900; eb <= MaxInputExp64; eb += 7 {
		e := TopLevelExp64(eb)
		if e%W64 != 0 {
			t.Fatalf("TopLevelExp64(%d) = %d not on grid", eb, e)
		}
		if e < MinLevelExp64 || e > MaxLevelExp64 {
			t.Fatalf("TopLevelExp64(%d) = %d out of range", eb, e)
		}
		if eb >= MinLevelExp64-MantBits64 { // not clamped at the bottom
			if eb+1 > e-MantBits64+W64-1 {
				t.Fatalf("TopLevelExp64(%d) = %d cannot absorb the value", eb, e)
			}
		}
	}
}

func TestTopLevelExp32(t *testing.T) {
	for eb := -100; eb <= MaxInputExp32; eb++ {
		e := TopLevelExp32(eb)
		if e%W32 != 0 {
			t.Fatalf("TopLevelExp32(%d) = %d not on grid", eb, e)
		}
		if eb >= MinLevelExp32-MantBits32 {
			if eb+1 > e-MantBits32+W32-1 {
				t.Fatalf("TopLevelExp32(%d) = %d cannot absorb the value", eb, e)
			}
		}
	}
}

func TestNBBounds(t *testing.T) {
	// The tile sizes must respect NB ≤ 2^(m−W−1) so that the running sum
	// drifts by at most 0.25·ufp between carry propagations.
	if NB64 > 1<<(MantBits64-W64-1) {
		t.Errorf("NB64 = %d exceeds bound", NB64)
	}
	if NB32 > 1<<(MantBits32-W32-1) {
		t.Errorf("NB32 = %d exceeds bound", NB32)
	}
}
