package rsum

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/floatbits"
)

// exactSum computes the mathematically exact sum of the inputs using
// arbitrary-precision arithmetic and returns it as a big.Float with
// enough precision to be treated as exact.
func exactSum(xs []float64) *big.Float {
	acc := new(big.Float).SetPrec(2100)
	for _, x := range xs {
		acc.Add(acc, new(big.Float).SetPrec(2100).SetFloat64(x))
	}
	return acc
}

// randVals returns n values drawn from a few interesting distributions.
func randVals(rng *rand.Rand, n int, kind int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		switch kind {
		case 0: // uniform [1, 2)
			xs[i] = 1 + rng.Float64()
		case 1: // exponential λ=1
			xs[i] = rng.ExpFloat64()
		case 2: // mixed signs, wide range
			xs[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(80)-40)
		default: // adversarial cancellation
			if i%2 == 0 {
				xs[i] = math.Ldexp(1+rng.Float64(), 30)
			} else {
				xs[i] = -xs[i-1] * (1 - 1e-14)
			}
		}
	}
	return xs
}

func TestEmptyState(t *testing.T) {
	s := NewState64(2)
	if !s.IsEmpty() {
		t.Error("new state not empty")
	}
	if v := s.Value(); v != 0 || math.Signbit(v) {
		t.Errorf("empty state Value() = %v, want +0", v)
	}
	if s.Levels() != 2 {
		t.Errorf("Levels() = %d", s.Levels())
	}
}

func TestLevelsValidation(t *testing.T) {
	for _, bad := range []int{0, -1, MaxLevels + 1, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewState64(%d) did not panic", bad)
				}
			}()
			NewState64(bad)
		}()
	}
	for l := 1; l <= MaxLevels; l++ {
		s := NewState64(l)
		s.Add(1.0)
		if v := s.Value(); v != 1.0 {
			t.Errorf("L=%d: sum of {1} = %v", l, v)
		}
	}
}

func TestSingleValueIdentity(t *testing.T) {
	// A single value must come back exactly for L ≥ 2 (one level can
	// already be lossy by design for values spanning more than W bits).
	f := func(x float64) bool {
		if x != x || math.IsInf(x, 0) || math.Abs(x) >= 0x1p987 ||
			(x != 0 && math.Abs(x) < 0x1p-900) {
			return true
		}
		s := NewState64(3)
		s.Add(x)
		return s.Value() == x || (x == 0 && s.Value() == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Error(err)
	}
}

func TestPaperAlgorithm1Example(t *testing.T) {
	// The non-reproducible query of Algorithm 1 in the paper: the same
	// three values summed in two different physical orders.
	a, b, c := 2.5e-16, 0.999999999999999, 2.5e-16
	conv1 := (a + b) + c
	conv2 := (a + c) + b
	if conv1 == conv2 {
		t.Fatal("test premise broken: conventional sums agree")
	}
	for L := 1; L <= 4; L++ {
		s1 := NewState64(L)
		s1.Add(a)
		s1.Add(b)
		s1.Add(c)
		s2 := NewState64(L)
		s2.Add(a)
		s2.Add(c)
		s2.Add(b)
		if v1, v2 := s1.Value(), s2.Value(); math.Float64bits(v1) != math.Float64bits(v2) {
			t.Errorf("L=%d: order changed the reproducible sum: %v vs %v", L, v1, v2)
		}
		if !s1.Equal(&s2) {
			t.Errorf("L=%d: states not bit-equal", L)
		}
	}
}

func TestPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for kind := 0; kind < 4; kind++ {
		for L := 1; L <= 4; L++ {
			xs := randVals(rng, 500, kind)
			s1 := NewState64(L)
			for _, x := range xs {
				s1.Add(x)
			}
			for trial := 0; trial < 5; trial++ {
				perm := rng.Perm(len(xs))
				s2 := NewState64(L)
				for _, i := range perm {
					s2.Add(xs[i])
				}
				if !s1.Equal(&s2) {
					t.Fatalf("kind=%d L=%d trial=%d: permutation changed state", kind, L, trial)
				}
				if math.Float64bits(s1.Value()) != math.Float64bits(s2.Value()) {
					t.Fatalf("kind=%d L=%d: permutation changed value", kind, L)
				}
			}
		}
	}
}

func TestChunkingInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := randVals(rng, 3000, 2)
	want := NewState64(2)
	for _, x := range xs {
		want.Add(x)
	}
	for trial := 0; trial < 10; trial++ {
		s := NewState64(2)
		rest := xs
		for len(rest) > 0 {
			n := 1 + rng.Intn(len(rest))
			s.AddSlice(rest[:n])
			rest = rest[n:]
		}
		if !s.Equal(&want) {
			t.Fatalf("trial %d: chunked AddSlice differs from per-value Add", trial)
		}
	}
}

func TestMergeTreeInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := randVals(rng, 2048, 2)
	// Reference: single state.
	ref := NewState64(3)
	for _, x := range xs {
		ref.Add(x)
	}
	// Partition into k parts and merge with different tree shapes.
	for _, k := range []int{2, 3, 7, 16} {
		parts := make([]State64, k)
		for i := range parts {
			parts[i] = NewState64(3)
		}
		for i, x := range xs {
			parts[i%k].Add(x)
		}
		// Left-deep merge.
		left := NewState64(3)
		for i := range parts {
			p := parts[i]
			left.Merge(&p)
		}
		// Right-deep merge.
		right := NewState64(3)
		for i := len(parts) - 1; i >= 0; i-- {
			p := parts[i]
			right.Merge(&p)
		}
		// Pairwise (binary tree) merge.
		tree := make([]State64, k)
		copy(tree, parts)
		for len(tree) > 1 {
			var next []State64
			for i := 0; i+1 < len(tree); i += 2 {
				m := tree[i]
				m.Merge(&tree[i+1])
				next = append(next, m)
			}
			if len(tree)%2 == 1 {
				next = append(next, tree[len(tree)-1])
			}
			tree = next
		}
		if !left.Equal(&ref) || !right.Equal(&ref) || !tree[0].Equal(&ref) {
			t.Fatalf("k=%d: merge tree shape changed the state", k)
		}
		if math.Float64bits(left.Value()) != math.Float64bits(ref.Value()) {
			t.Fatalf("k=%d: merge changed the value", k)
		}
	}
}

func TestMergeEmptyStates(t *testing.T) {
	a := NewState64(2)
	b := NewState64(2)
	b.Add(3.25)
	a.Merge(&b) // empty ← non-empty
	if a.Value() != 3.25 {
		t.Errorf("merge into empty: %v", a.Value())
	}
	c := NewState64(2)
	a.Merge(&c) // non-empty ← empty
	if a.Value() != 3.25 {
		t.Errorf("merge of empty: %v", a.Value())
	}
	d := NewState64(2)
	e := NewState64(2)
	d.Merge(&e)
	if !d.IsEmpty() {
		t.Error("empty+empty not empty")
	}
}

func TestMergeLevelMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("merging states with different L did not panic")
		}
	}()
	a := NewState64(2)
	b := NewState64(3)
	a.Merge(&b)
}

func TestVecMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for kind := 0; kind < 4; kind++ {
		for L := 1; L <= 4; L++ {
			for _, n := range []int{0, 1, 3, 4, 5, 17, 100, 1000, 10000} {
				xs := randVals(rng, n, kind)
				a := NewState64(L)
				for _, x := range xs {
					a.Add(x)
				}
				b := NewState64(L)
				b.AddSliceVec(xs)
				if !a.Equal(&b) {
					t.Fatalf("kind=%d L=%d n=%d: vec kernel state differs", kind, L, n)
				}
				if math.Float64bits(a.Value()) != math.Float64bits(b.Value()) {
					t.Fatalf("kind=%d L=%d n=%d: vec kernel value differs", kind, L, n)
				}
			}
		}
	}
}

func TestVecChunkedMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	xs := randVals(rng, 5000, 2)
	ref := NewState64(2)
	for _, x := range xs {
		ref.Add(x)
	}
	for _, c := range []int{1, 2, 7, 16, 64, 512} {
		s := NewState64(2)
		for i := 0; i < len(xs); i += c {
			end := i + c
			if end > len(xs) {
				end = len(xs)
			}
			s.AddSliceVec(xs[i:end])
		}
		if !s.Equal(&ref) {
			t.Fatalf("chunk size %d: vec chunked state differs", c)
		}
	}
}

func TestAccuracyBound(t *testing.T) {
	// Eq. 6: |error| ≤ n · 2^((1−L)·W−1) · max|b|.
	rng := rand.New(rand.NewSource(17))
	for _, n := range []int{1000, 100000} {
		for kind := 0; kind < 2; kind++ {
			xs := randVals(rng, n, kind)
			maxAbs := 0.0
			for _, x := range xs {
				if a := math.Abs(x); a > maxAbs {
					maxAbs = a
				}
			}
			exact := exactSum(xs)
			for L := 1; L <= 4; L++ {
				s := NewState64(L)
				s.AddSlice(xs)
				got := new(big.Float).SetPrec(2100).SetFloat64(s.Value())
				err := new(big.Float).Sub(got, exact)
				err.Abs(err)
				bound := float64(n) * math.Ldexp(1, (1-L)*floatbits.W64-1) * maxAbs
				// Add the final rounding of the result itself.
				bound += math.Abs(s.Value()) * 0x1p-50
				ef, _ := err.Float64()
				if ef > bound {
					t.Errorf("n=%d kind=%d L=%d: |err|=%g exceeds bound %g", n, kind, L, ef, bound)
				}
			}
		}
	}
}

func TestAccuracyComparableToConventional(t *testing.T) {
	// Section VI-B: RSUM with L = 2 has accuracy comparable to a
	// conventional summation; L = 3 is much more accurate.
	rng := rand.New(rand.NewSource(23))
	xs := randVals(rng, 100000, 1)
	exact := exactSum(xs)
	conv := 0.0
	for _, x := range xs {
		conv += x
	}
	errOf := func(v float64) float64 {
		d := new(big.Float).Sub(new(big.Float).SetPrec(2100).SetFloat64(v), exact)
		d.Abs(d)
		f, _ := d.Float64()
		return f
	}
	convErr := errOf(conv)
	s2 := NewState64(2)
	s2.AddSlice(xs)
	s3 := NewState64(3)
	s3.AddSlice(xs)
	if e2 := errOf(s2.Value()); e2 > 1e6*convErr+1e-9 {
		t.Errorf("L=2 error %g not comparable to conventional %g", e2, convErr)
	}
	if e3 := errOf(s3.Value()); e3 > convErr+1e-12 && convErr > 0 {
		t.Errorf("L=3 error %g should beat conventional %g", e3, convErr)
	}
}

func TestSpecialValues(t *testing.T) {
	inf := math.Inf(1)
	cases := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"nan", []float64{1, math.NaN(), 2}, math.NaN()},
		{"posinf", []float64{1, inf, 2}, inf},
		{"neginf", []float64{1, -inf, 2}, -inf},
		{"bothinf", []float64{inf, -inf}, math.NaN()},
		{"inf+nan", []float64{inf, math.NaN()}, math.NaN()},
		{"overflow", []float64{0x1p990, 1}, inf},
		{"negoverflow", []float64{-0x1p990, 1}, -inf},
	}
	for _, c := range cases {
		// Any permutation yields the same special result.
		for trial := 0; trial < 3; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)))
			perm := rng.Perm(len(c.xs))
			s := NewState64(2)
			for _, i := range perm {
				s.Add(c.xs[i])
			}
			got := s.Value()
			if math.IsNaN(c.want) {
				if !math.IsNaN(got) {
					t.Errorf("%s: got %v, want NaN", c.name, got)
				}
			} else if got != c.want {
				t.Errorf("%s: got %v, want %v", c.name, got, c.want)
			}
		}
	}
}

func TestSpecialsThroughSlicePaths(t *testing.T) {
	xs := []float64{1, 2, math.NaN(), 3}
	a := NewState64(2)
	a.AddSlice(xs)
	b := NewState64(2)
	b.AddSliceVec(xs)
	if !math.IsNaN(a.Value()) || !math.IsNaN(b.Value()) {
		t.Error("NaN lost in slice paths")
	}
}

func TestZerosAndSignedZero(t *testing.T) {
	s := NewState64(2)
	s.Add(0)
	s.Add(math.Copysign(0, -1))
	if v := s.Value(); v != 0 {
		t.Errorf("sum of zeros = %v", v)
	}
	s.Add(5)
	s.Add(-5)
	if v := s.Value(); v != 0 {
		t.Errorf("cancelling sum = %v", v)
	}
}

func TestSubnormalInputs(t *testing.T) {
	xs := []float64{math.SmallestNonzeroFloat64, 0x1p-1070, -0x1p-1070, 0x1p-1022}
	s := NewState64(4)
	for _, x := range xs {
		s.Add(x)
	}
	// Values below the lowest level are dropped deterministically; the
	// important property is reproducibility, checked by permuting.
	v1 := s.Value()
	s2 := NewState64(4)
	for i := len(xs) - 1; i >= 0; i-- {
		s2.Add(xs[i])
	}
	if math.Float64bits(v1) != math.Float64bits(s2.Value()) {
		t.Error("subnormal inputs broke reproducibility")
	}
}

func TestHugeDynamicRange(t *testing.T) {
	// Exponents spanning the full supported range, forcing many level
	// shifts in every order.
	xs := []float64{1e-300, 1e300, -1e300, 42.5, 1e-30, 7e250, -7e250}
	var ref State64
	ref.Reset(3)
	for _, x := range xs {
		ref.Add(x)
	}
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		perm := rng.Perm(len(xs))
		s := NewState64(3)
		for _, i := range perm {
			s.Add(xs[i])
		}
		if !s.Equal(&ref) {
			t.Fatalf("trial %d: huge-range permutation changed state", trial)
		}
	}
	// With everything cancelling except 42.5 + 1e-30, L=3 should get
	// very close to the truth.
	if got := ref.Value(); math.Abs(got-42.5) > 1e-6 {
		t.Errorf("Value() = %v, want ≈ 42.5", got)
	}
}

func TestCarryPropagationInvariant(t *testing.T) {
	// After propagate, every live running sum lies in [1.5, 1.75)·ufp.
	rng := rand.New(rand.NewSource(37))
	s := NewState64(3)
	for i := 0; i < 100000; i++ {
		s.Add((rng.Float64() - 0.5) * 1000)
	}
	s.propagate()
	for l := 0; l < s.Levels(); l++ {
		e := s.levelExp(l)
		if e < LowestLevelExp64 {
			continue
		}
		ufp := floatbits.Pow2_64(e)
		if s.s[l] < 1.5*ufp || s.s[l] >= 1.75*ufp {
			t.Errorf("level %d: S = %g·ufp out of [1.5, 1.75)", l, s.s[l]/ufp)
		}
	}
}

func TestRunningSumNeverChangesExponent(t *testing.T) {
	// The defining invariant of the algorithm: between level raises, the
	// running sums stay within their binade.
	rng := rand.New(rand.NewSource(41))
	s := NewState64(2)
	s.Add(1.0)
	e0 := s.eTop
	for i := 0; i < 50000; i++ {
		s.Add(rng.Float64()) // all < 1, never forces a raise
		if s.eTop != e0 {
			t.Fatalf("top level moved after %d adds", i)
		}
		for l := 0; l < s.Levels(); l++ {
			e := s.levelExp(l)
			if e < LowestLevelExp64 {
				continue
			}
			ufp := floatbits.Pow2_64(e)
			if s.s[l] < 1.0*ufp || s.s[l] >= 2.0*ufp {
				t.Fatalf("level %d drifted out of its binade: %g·ufp", l, s.s[l]/ufp)
			}
		}
	}
}

func TestMarshalRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for L := 1; L <= MaxLevels; L++ {
		s := NewState64(L)
		for i := 0; i < 1000; i++ {
			s.Add((rng.Float64() - 0.3) * math.Ldexp(1, rng.Intn(40)))
		}
		data, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var r State64
		if err := r.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if !r.Equal(&s) {
			t.Fatalf("L=%d: roundtrip state differs", L)
		}
		if math.Float64bits(r.Value()) != math.Float64bits(s.Value()) {
			t.Fatalf("L=%d: roundtrip value differs", L)
		}
	}
}

func TestMarshalCanonical(t *testing.T) {
	// States built from permutations of the same input marshal to the
	// same bytes.
	rng := rand.New(rand.NewSource(47))
	xs := randVals(rng, 500, 2)
	s1 := NewState64(2)
	for _, x := range xs {
		s1.Add(x)
	}
	perm := rng.Perm(len(xs))
	s2 := NewState64(2)
	for _, i := range perm {
		s2.Add(xs[i])
	}
	d1, _ := s1.MarshalBinary()
	d2, _ := s2.MarshalBinary()
	if string(d1) != string(d2) {
		t.Error("canonical encodings differ across permutations")
	}
}

func TestMergeBinary(t *testing.T) {
	// Merging from the wire is equivalent to merging the state directly.
	rng := rand.New(rand.NewSource(53))
	a := NewState64(2)
	b := NewState64(2)
	for i := 0; i < 2000; i++ {
		a.Add((rng.Float64() - 0.4) * math.Ldexp(1, rng.Intn(30)))
		b.Add((rng.Float64() - 0.6) * math.Ldexp(1, rng.Intn(30)))
	}
	wire, err := b.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	fromWire := a
	if err := fromWire.MergeBinary(wire); err != nil {
		t.Fatal(err)
	}
	direct := a
	direct.Merge(&b)
	if !fromWire.Equal(&direct) {
		t.Fatal("MergeBinary result differs from direct Merge")
	}

	// Level mismatch and corrupt bytes error out without panicking.
	other := NewState64(3)
	enc, _ := other.MarshalBinary()
	if err := fromWire.MergeBinary(enc); err == nil {
		t.Error("level mismatch accepted")
	}
	if err := fromWire.MergeBinary(wire[:len(wire)-2]); err == nil {
		t.Error("truncated encoding accepted")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	var s State64
	if err := s.UnmarshalBinary(nil); err == nil {
		t.Error("nil data accepted")
	}
	if err := s.UnmarshalBinary(make([]byte, 5)); err == nil {
		t.Error("short data accepted")
	}
	gs := NewState64(2)
	good, _ := gs.MarshalBinary()
	if err := s.UnmarshalBinary(good[:3]); err == nil {
		t.Error("prefix shorter than the header accepted")
	}
	bad := append([]byte(nil), good...)
	bad[0] = 99
	if err := s.UnmarshalBinary(bad); err == nil {
		t.Error("bad version accepted")
	}
	bad = append([]byte(nil), good...)
	bad[1] = kindState32
	if err := s.UnmarshalBinary(bad); err == nil {
		t.Error("wrong kind accepted")
	}
	bad = append([]byte(nil), good...)
	bad[2] = 0
	if err := s.UnmarshalBinary(bad); err == nil {
		t.Error("zero levels accepted")
	}
	// 200 levels with 200 levels' bytes: only the level bound rejects it.
	bad = append(good[:headerSize:headerSize], make([]byte, 200*levelSize64)...)
	bad[2] = 200
	if err := s.UnmarshalBinary(bad); err == nil {
		t.Error("levels beyond MaxLevels accepted")
	}
	if err := s.UnmarshalBinary(append(good, 0)); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// TestUnmarshalRejectsNonCanonicalEmpty: an empty sum has one encoding.
// A bit set in a level of an uninitialized state — running sum or carry,
// either precision — is rejected, or decode → encode would not be a
// fixpoint.
func TestUnmarshalRejectsNonCanonicalEmpty(t *testing.T) {
	e64, e32 := NewState64(2), NewState32(2)
	for name, c := range map[string]struct {
		enc    []byte
		decode func([]byte) error
	}{
		"State64": {must(e64.MarshalBinary()), func(b []byte) error { var s State64; return s.UnmarshalBinary(b) }},
		"State32": {must(e32.MarshalBinary()), func(b []byte) error { var s State32; return s.UnmarshalBinary(b) }},
	} {
		if err := c.decode(c.enc); err != nil {
			t.Fatalf("%s: canonical empty state rejected: %v", name, err)
		}
		for bit := 8 * headerSize; bit < 8*len(c.enc); bit++ {
			mut := append([]byte(nil), c.enc...)
			mut[bit/8] ^= 1 << (bit % 8)
			if c.decode(mut) == nil {
				t.Errorf("%s: empty state with level bit %d set accepted", name, bit-8*headerSize)
			}
		}
	}
}

func must(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

func TestAddSliceSplitsArbitrarily(t *testing.T) {
	f := func(seed int64, cut uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := randVals(rng, 300, 1)
		k := int(cut) % len(xs)
		a := NewState64(2)
		a.AddSlice(xs)
		b := NewState64(2)
		b.AddSlice(xs[:k])
		b.AddSlice(xs[k:])
		return a.Equal(&b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMergeMatchesSequential(t *testing.T) {
	// Property: splitting at any point and merging equals sequential.
	f := func(seed int64, cut uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := randVals(rng, 200, 2)
		k := int(cut) % len(xs)
		seq := NewState64(2)
		for _, x := range xs {
			seq.Add(x)
		}
		a := NewState64(2)
		for _, x := range xs[:k] {
			a.Add(x)
		}
		b := NewState64(2)
		for _, x := range xs[k:] {
			b.Add(x)
		}
		a.Merge(&b)
		return a.Equal(&seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAddEagerMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for kind := 0; kind < 4; kind++ {
		for L := 1; L <= 4; L++ {
			xs := randVals(rng, 2000, kind)
			a := NewState64(L)
			for _, x := range xs {
				a.Add(x)
			}
			b := NewState64(L)
			for _, x := range xs {
				b.AddEager(x)
			}
			if !a.Equal(&b) {
				t.Fatalf("kind=%d L=%d: AddEager state differs from Add", kind, L)
			}
			if math.Float64bits(a.Value()) != math.Float64bits(b.Value()) {
				t.Fatalf("kind=%d L=%d: AddEager value differs", kind, L)
			}
			// Mixed eager/lazy usage also agrees.
			c := NewState64(L)
			for i, x := range xs {
				if i%3 == 0 {
					c.AddEager(x)
				} else {
					c.Add(x)
				}
			}
			if !a.Equal(&c) {
				t.Fatalf("kind=%d L=%d: mixed eager/lazy differs", kind, L)
			}
		}
	}
}

func TestAddEagerSpecials(t *testing.T) {
	s := NewState64(2)
	s.AddEager(math.NaN())
	if !math.IsNaN(s.Value()) {
		t.Error("AddEager lost NaN")
	}
	s = NewState64(2)
	s.AddEager(math.Inf(-1))
	s.AddEager(1)
	if !math.IsInf(s.Value(), -1) {
		t.Error("AddEager lost -Inf")
	}
	s = NewState64(2)
	s.AddEager(0)
	if !s.IsEmpty() {
		t.Error("AddEager(0) should keep state empty")
	}
}

func TestAddEagerMatchesAdd32(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for L := 1; L <= 4; L++ {
		xs := randVals32(rng, 2000, 2)
		a := NewState32(L)
		for _, x := range xs {
			a.Add(x)
		}
		b := NewState32(L)
		for _, x := range xs {
			b.AddEager(x)
		}
		if !a.Equal(&b) {
			t.Fatalf("L=%d: float32 AddEager differs", L)
		}
	}
}
