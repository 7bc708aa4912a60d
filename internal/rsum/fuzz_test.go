package rsum

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
)

// Native fuzz targets. `go test` runs the seed corpus; `go test -fuzz`
// explores further. Each target checks the core metamorphic properties
// on arbitrary bit patterns, including NaNs, infinities, subnormals,
// and near-overflow values.

func bytesToFloats(data []byte) []float64 {
	xs := make([]float64, 0, len(data)/8)
	for len(data) >= 8 {
		xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return xs
}

func addFuzzSeeds(f *testing.F) {
	f.Helper()
	seed := func(vals ...float64) {
		buf := make([]byte, 8*len(vals))
		for i, v := range vals {
			binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
		}
		f.Add(buf, uint8(3))
		f.Add(buf, uint8(0x83)) // FuzzKernelConsistency: the other tile kernel
	}
	seed(1, 2, 3)
	seed(2.5e-16, 0.999999999999999, 2.5e-16)
	seed(math.NaN(), 1, math.Inf(1))
	seed(math.Inf(1), math.Inf(-1))
	seed(0x1p990, -0x1p990, 1)
	seed(math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64)
	seed(1e300, -1e300, 1e-300, 42)
	seed(0, math.Copysign(0, -1), 0)
}

// FuzzPermutationInvariance: rotating the input must not change the
// normalized state or the finalized bits.
func FuzzPermutationInvariance(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, rot uint8) {
		xs := bytesToFloats(data)
		if len(xs) == 0 {
			return
		}
		k := int(rot) % len(xs)
		a := NewState64(2)
		for _, x := range xs {
			a.Add(x)
		}
		b := NewState64(2)
		for i := range xs {
			b.Add(xs[(i+k)%len(xs)])
		}
		if !a.Equal(&b) {
			t.Fatalf("rotation by %d changed the state for %v", k, xs)
		}
		va, vb := a.Value(), b.Value()
		if math.Float64bits(va) != math.Float64bits(vb) {
			t.Fatalf("rotation changed value: %v vs %v", va, vb)
		}
	})
}

// FuzzKernelConsistency: Add, AddEager, AddSlice, AddSliceVec, and a
// split+Merge must all produce the same normalized state, and
// AddSliceExtent given the slice's own Extent64 must encode as
// AddSliceVec. The top bit of
// cut picks the tile kernel under AddSliceVec (the generic one, or the
// one init installed — the same where there is no assembly), the rest
// the split point.
func FuzzKernelConsistency(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, cut uint8) {
		xs := bytesToFloats(data)
		if len(xs) == 0 {
			return
		}
		k := &kernel
		if cut&0x80 != 0 {
			k = &genericKernel
		}
		ref := NewState64(2)
		for _, x := range xs {
			ref.Add(x)
		}
		eager := NewState64(2)
		for _, x := range xs {
			eager.AddEager(x)
		}
		if !ref.Equal(&eager) {
			t.Fatal("AddEager differs")
		}
		sl := NewState64(2)
		sl.AddSlice(xs)
		if !ref.Equal(&sl) {
			t.Fatal("AddSlice differs")
		}
		vec := NewState64(2)
		vec.addSliceVec(xs, k)
		if !ref.Equal(&vec) {
			t.Fatalf("AddSliceVec (%s) differs", k.name)
		}
		ext := NewState64(2)
		ext.addSliceExtent(xs, extent64(xs, k), k)
		eb, _ := ext.MarshalBinary()
		vb, _ := vec.MarshalBinary()
		if !bytes.Equal(eb, vb) {
			t.Fatalf("AddSliceExtent (%s) encodes %x, AddSliceVec %x", k.name, eb, vb)
		}
		split := int(cut&0x7f) % len(xs)
		left := NewState64(2)
		left.AddSlice(xs[:split])
		right := NewState64(2)
		right.addSliceVec(xs[split:], k)
		left.Merge(&right)
		if !ref.Equal(&left) {
			t.Fatalf("split+Merge (%s) differs", k.name)
		}
	})
}

// FuzzMarshalRoundtrip: marshal/unmarshal must preserve the state, and
// the canonical encoding must be stable.
func FuzzMarshalRoundtrip(f *testing.F) {
	addFuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte, levels uint8) {
		l := int(levels)%MaxLevels + 1
		xs := bytesToFloats(data)
		s := NewState64(l)
		s.AddSlice(xs)
		enc, err := s.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var r State64
		if err := r.UnmarshalBinary(enc); err != nil {
			t.Fatal(err)
		}
		if !r.Equal(&s) {
			t.Fatal("roundtrip state differs")
		}
		enc2, _ := r.MarshalBinary()
		if string(enc) != string(enc2) {
			t.Fatal("canonical encoding unstable")
		}
	})
}

// FuzzState64UnmarshalBinary: malformed or truncated wire bytes must
// always return an error — never panic, never yield a state that later
// panics, and never corrupt an accumulator they are merged into. The
// seed corpus is built from valid marshaled states (empty, finite,
// denormal, special-value, and multi-level ones) plus single bit flips
// and truncations, mirroring line corruption of real partial-state
// frames.
func FuzzState64UnmarshalBinary(f *testing.F) {
	var encs [][]byte
	marshal := func(levels int, vals ...float64) {
		s := NewState64(levels)
		for _, v := range vals {
			s.Add(v)
		}
		enc, err := s.MarshalBinary()
		if err != nil {
			f.Fatal(err)
		}
		encs = append(encs, enc)
	}
	marshal(2)
	marshal(1, 1.5)
	marshal(2, 1e300, -1e300, 0x1p-1040)
	marshal(3, math.Inf(1), 42)
	marshal(4, math.NaN(), math.Inf(-1))
	marshal(MaxLevels, 1e-308, math.SmallestNonzeroFloat64)
	for _, enc := range encs {
		f.Add(enc)
		for bit := 0; bit < 8*len(enc); bit += 7 {
			mut := append([]byte(nil), enc...)
			mut[bit/8] ^= 1 << (bit % 8)
			f.Add(mut)
		}
		f.Add(enc[:len(enc)/2])
		f.Add(enc[:len(enc)-1])
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var s State64
		if err := s.UnmarshalBinary(data); err == nil {
			// Accepted: the state must be fully usable and canonical.
			s.Add(1)
			_ = s.Value()
			enc, err := s.MarshalBinary()
			if err != nil {
				t.Fatalf("accepted state failed to re-marshal: %v", err)
			}
			var r State64
			if err := r.UnmarshalBinary(enc); err != nil {
				t.Fatalf("re-marshaled state rejected: %v", err)
			}
		} else if !s.IsEmpty() || s.Levels() != 0 {
			t.Fatal("failed UnmarshalBinary left residue in the receiver")
		}

		// The wire-facing merge path: a failure must leave the live
		// accumulator untouched, a success must leave it usable.
		acc := NewState64(2)
		acc.AddSlice([]float64{1e16, 1, -1e16, 0x1p-1000})
		before := acc
		if err := acc.MergeBinary(data); err != nil {
			if !acc.Equal(&before) {
				t.Fatal("failed MergeBinary corrupted the accumulator")
			}
			if math.Float64bits(acc.Value()) != math.Float64bits(before.Value()) {
				t.Fatal("failed MergeBinary changed the accumulator's value bits")
			}
		} else {
			acc.Add(2.5)
			_ = acc.Value()
		}
	})
}

// FuzzUnmarshalRobustness: arbitrary bytes must never panic the decoder.
func FuzzUnmarshalRobustness(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 64, 2, 1, 0, 0, 0, 0})
	good, _ := func() ([]byte, error) { s := NewState64(2); s.Add(1); return s.MarshalBinary() }()
	f.Add(good)
	f.Fuzz(func(t *testing.T, data []byte) {
		var s State64
		if err := s.UnmarshalBinary(data); err != nil {
			return // rejected, fine
		}
		// Accepted: state must be usable.
		s.Add(1)
		_ = s.Value()
	})
}
