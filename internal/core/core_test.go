package core

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/exact"
	"repro/internal/rsum"
	"repro/internal/workload"
)

func TestSum64Basics(t *testing.T) {
	s := NewSum64(2)
	s.Add(1.5)
	s.Add(2.5)
	if v := s.Value(); v != 4 {
		t.Errorf("Value = %v", v)
	}
	if s.Levels() != 2 {
		t.Errorf("Levels = %d", s.Levels())
	}
}

func TestSum64Associative(t *testing.T) {
	// The headline property of the data type: (a+b)+c == a+(b+c) at the
	// bit level, for the three values of the paper's Algorithm 1.
	vals := []float64{2.5e-16, 0.999999999999999, 2.5e-16}
	ab := NewSum64(2)
	ab.Add(vals[0])
	ab.Add(vals[1])
	abc1 := ab
	abc1.Add(vals[2])

	bc := NewSum64(2)
	bc.Add(vals[1])
	bc.Add(vals[2])
	abc2 := NewSum64(2)
	abc2.Add(vals[0])
	abc2.MergeFrom(&bc)

	if math.Float64bits(abc1.Value()) != math.Float64bits(abc2.Value()) {
		t.Errorf("(a+b)+c = %v != a+(b+c) = %v", abc1.Value(), abc2.Value())
	}
}

func TestBuffered64MatchesUnbuffered(t *testing.T) {
	// Buffered and unbuffered accumulation of the same multiset must
	// produce identical bits for any buffer size.
	vs := workload.Values64(3, 5000, workload.MixedMag)
	ref := NewSum64(2)
	for _, v := range vs {
		ref.Add(v)
	}
	want := math.Float64bits(ref.Value())
	for _, bsz := range []int{1, 2, 7, 16, 64, 256, 1024, 4096} {
		b := NewBuffered64(2, bsz)
		for _, v := range vs {
			b.Add(v)
		}
		if got := math.Float64bits(b.Value()); got != want {
			t.Errorf("bsz=%d: buffered %x != unbuffered %x", bsz, got, want)
		}
	}
}

func TestBuffered64ValueIdempotent(t *testing.T) {
	b := NewBuffered64(2, 16)
	b.Add(1)
	b.Add(2)
	if b.Value() != 3 || b.Value() != 3 {
		t.Error("Value not idempotent")
	}
	b.Add(4)
	if b.Value() != 7 {
		t.Error("Add after Value broken")
	}
}

func TestBuffered64MergeFrom(t *testing.T) {
	vs := workload.Values64(5, 2000, workload.Exp1)
	ref := NewSum64(3)
	for _, v := range vs {
		ref.Add(v)
	}
	a := NewBuffered64(3, 64)
	b := NewBuffered64(3, 128)
	for i, v := range vs {
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
	}
	a.MergeFrom(&b)
	if math.Float64bits(a.Value()) != math.Float64bits(ref.Value()) {
		t.Error("MergeFrom differs from sequential")
	}
}

func TestBuffered64MergeIntoSum(t *testing.T) {
	vs := workload.Values64(7, 1000, workload.Uniform12)
	ref := NewSum64(2)
	for _, v := range vs {
		ref.Add(v)
	}
	b := NewBuffered64(2, 32)
	for _, v := range vs {
		b.Add(v)
	}
	dst := NewSum64(2)
	b.MergeIntoSum(&dst)
	if math.Float64bits(dst.Value()) != math.Float64bits(ref.Value()) {
		t.Error("MergeIntoSum differs")
	}
}

func TestBufferedPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bsz=0 did not panic")
		}
	}()
	NewBuffered64(2, 0)
}

func TestSum64PermutationProperty(t *testing.T) {
	f := func(seed uint64, rot uint16) bool {
		vs := workload.Values64(seed, 300, workload.MixedMag)
		s1 := NewSum64(2)
		for _, v := range vs {
			s1.Add(v)
		}
		k := int(rot) % len(vs)
		s2 := NewSum64(2)
		for i := range vs {
			s2.Add(vs[(i+k)%len(vs)])
		}
		return math.Float64bits(s1.Value()) == math.Float64bits(s2.Value())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSum64AccuracyVsExact(t *testing.T) {
	vs := workload.Values64(11, 100000, workload.Exp1)
	e := exact.Sum(vs)
	s := NewSum64(2)
	s.AddSlice(vs)
	maxAbs := 0.0
	for _, v := range vs {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
	}
	if err := exact.AbsError(s.Value(), e); err > exact.RSumBound(len(vs), 2, maxAbs) {
		t.Errorf("L=2 error %g exceeds Eq.6 bound", err)
	}
}

func TestSum32AndBuffered32(t *testing.T) {
	vs := workload.Values32(13, 3000, workload.Uniform12)
	ref := NewSum32(2)
	for _, v := range vs {
		ref.Add(v)
	}
	for _, bsz := range []int{1, 3, 16, 256} {
		b := NewBuffered32(2, bsz)
		for _, v := range vs {
			b.Add(v)
		}
		if math.Float32bits(b.Value()) != math.Float32bits(ref.Value()) {
			t.Errorf("bsz=%d: Buffered32 differs", bsz)
		}
	}
	dst := NewSum32(2)
	b := NewBuffered32(2, 64)
	for _, v := range vs {
		b.Add(v)
	}
	b.MergeIntoSum(&dst)
	if math.Float32bits(dst.Value()) != math.Float32bits(ref.Value()) {
		t.Error("Buffered32 MergeIntoSum differs")
	}
}

func TestSum32AddSlice(t *testing.T) {
	vs := workload.Values32(17, 1000, workload.Exp1)
	a := NewSum32(2)
	for _, v := range vs {
		a.Add(v)
	}
	b := NewSum32(2)
	b.AddSlice(vs)
	if math.Float32bits(a.Value()) != math.Float32bits(b.Value()) {
		t.Error("Sum32 AddSlice differs from Add")
	}
}

// budgetEdgeCounts are the values per group TestBudgetEdgesAcrossPaths
// runs: either side of NB32 = 16 and NB64 = 2048, and several budgets.
var budgetEdgeCounts = []int{1, 15, 16, 17, 2047, 2048, 2049, 3*2048 + 5}

// edgeValues64 returns n values of one sign that spend the carry budget
// at its bound: maximal contributions 2^(e−13) to the top level of
// exponent e = 40, a raise to e = 80 half-way, then maximal contributions
// to the new top level and to the demoted one, alternately.
func edgeValues64(n int, sign float64) []float64 {
	vs := make([]float64, n)
	for i := range vs {
		switch {
		case i < n/2:
			vs[i] = math.Nextafter(0x1p27, 0) // contributes 2^27 at e = 40
		case i == n/2:
			vs[i] = 0x1p30 // raises the top level to e = 80
		case i%2 == 0:
			vs[i] = math.Nextafter(0x1p67, 0) // 2^67 at e = 80
		default:
			vs[i] = 0x1p40 + 0x1p27 // 2^27 to the demoted level
		}
		vs[i] *= sign
	}
	return vs
}

// edgeValues32 is edgeValues64 for float32: e = 18, then 36.
func edgeValues32(n int, sign float32) []float32 {
	vs := make([]float32, n)
	for i := range vs {
		switch {
		case i < n/2:
			vs[i] = math.Nextafter32(0x1p12, 0)
		case i == n/2:
			vs[i] = 0x1p13
		case i%2 == 0:
			vs[i] = math.Nextafter32(0x1p30, 0)
		default:
			vs[i] = 0x1p18 + 0x1p12
		}
		vs[i] *= sign
	}
	return vs
}

// TestBudgetEdgesAcrossPaths: at and around the carry budget's edges,
// Sum.Add (budgeted), a state fed through AddEager (the paper's
// per-value propagation) and a Buffered accumulator at bsz 32 (the
// vector kernel) encode to the same bytes and finalize to the same bits.
func TestBudgetEdgesAcrossPaths(t *testing.T) {
	for _, L := range []int{1, 2, 3} {
		for _, n := range budgetEdgeCounts {
			for _, sign := range []float64{1, -1} {
				vs := edgeValues64(n, sign)
				sum, eager, buf := NewSum64(L), rsum.NewState64(L), NewBuffered64(L, 32)
				for _, v := range vs {
					sum.Add(v)
					eager.AddEager(v)
					buf.Add(v)
				}
				viaBuf := NewSum64(L)
				buf.MergeIntoSum(&viaBuf)
				want, _ := eager.AppendBinary(nil)
				for name, s := range map[string]*Sum64{"Sum64.Add": &sum, "Buffered64": &viaBuf} {
					if got, _ := s.State().AppendBinary(nil); !bytes.Equal(got, want) {
						t.Errorf("L=%d n=%d sign %v: %s bytes differ from AddEager's", L, n, sign, name)
					}
					if math.Float64bits(s.Value()) != math.Float64bits(eager.Value()) {
						t.Errorf("L=%d n=%d sign %v: %s value differs from AddEager's", L, n, sign, name)
					}
				}

				vs32 := edgeValues32(n, float32(sign))
				sum32, eager32, buf32 := NewSum32(L), rsum.NewState32(L), NewBuffered32(L, 32)
				for _, v := range vs32 {
					sum32.Add(v)
					eager32.AddEager(v)
					buf32.Add(v)
				}
				viaBuf32 := NewSum32(L)
				buf32.MergeIntoSum(&viaBuf32)
				want, _ = eager32.AppendBinary(nil)
				for name, s := range map[string]*Sum32{"Sum32.Add": &sum32, "Buffered32": &viaBuf32} {
					if got, _ := s.State().AppendBinary(nil); !bytes.Equal(got, want) {
						t.Errorf("L=%d n=%d sign %v: %s bytes differ from AddEager's", L, n, sign, name)
					}
					if math.Float32bits(s.Value()) != math.Float32bits(eager32.Value()) {
						t.Errorf("L=%d n=%d sign %v: %s value differs from AddEager's", L, n, sign, name)
					}
				}
			}
		}
	}
}

func TestStateAccessors(t *testing.T) {
	s := NewSum64(2)
	s.Add(5)
	data, err := s.State().MarshalBinary()
	if err != nil || len(data) == 0 {
		t.Fatalf("marshal via State(): %v", err)
	}
	s32 := NewSum32(2)
	s32.Add(5)
	if s32.State() == nil {
		t.Fatal("State() nil")
	}
	b := NewBuffered64(2, 8)
	if b.BufferSize() != 8 {
		t.Error("BufferSize")
	}
	b32 := NewBuffered32(2, 8)
	if b32.BufferSize() != 8 {
		t.Error("BufferSize32")
	}
}
