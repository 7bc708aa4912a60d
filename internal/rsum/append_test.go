package rsum

import (
	"bytes"
	"math"
	"testing"
)

// corpus64 generates State64s covering the encoding surface: every
// level count, fresh and empty states, special-value counters, raised
// and saturated accumulators, and states whose lowest levels are dead.
func corpus64(t *testing.T) []State64 {
	t.Helper()
	var states []State64
	for levels := 1; levels <= MaxLevels; levels++ {
		empty := NewState64(levels)
		states = append(states, empty)

		one := NewState64(levels)
		one.Add(1.5)
		states = append(states, one)

		specials := NewState64(levels)
		specials.Add(math.NaN())
		specials.Add(math.Inf(1))
		specials.Add(math.Inf(-1))
		specials.Add(math.Inf(1))
		states = append(states, specials)

		mixed := NewState64(levels)
		mixed.AddSlice([]float64{1.0, -0.25, 1e300, -1e300, 0x1p-1060, 3.5e-310, -2.75})
		mixed.Add(math.NaN())
		states = append(states, mixed)

		// Saturated: enough same-sign adds to spill carries on every
		// live level, plus a late raise that shifts levels down.
		sat := NewState64(levels)
		for i := 0; i < 4096; i++ {
			sat.Add(float64(i%13) * 0x1p+40)
		}
		sat.Add(0x1p+500) // raise: demotes existing levels
		for i := 0; i < 512; i++ {
			sat.Add(-0x1p+460)
		}
		states = append(states, sat)

		// Deep negative exponents: lowest levels fall below
		// LowestLevelExp64 and must encode as dead (zero) levels.
		deep := NewState64(levels)
		deep.Add(0x1p-900)
		deep.Add(-0x1p-970)
		states = append(states, deep)

		merged := NewState64(levels)
		merged.Merge(&mixed)
		merged.Merge(&sat)
		states = append(states, merged)
	}
	return states
}

func corpus32(t *testing.T) []State32 {
	t.Helper()
	var states []State32
	for levels := 1; levels <= MaxLevels; levels++ {
		empty := NewState32(levels)
		states = append(states, empty)

		specials := NewState32(levels)
		specials.Add(float32(math.NaN()))
		specials.Add(float32(math.Inf(1)))
		specials.Add(float32(math.Inf(-1)))
		states = append(states, specials)

		mixed := NewState32(levels)
		mixed.AddSlice([]float32{1.0, -0.25, 1e30, -1e30, 0x1p-120, -2.75})
		states = append(states, mixed)

		sat := NewState32(levels)
		for i := 0; i < 4096; i++ {
			sat.Add(float32(i%13) * 0x1p+20)
		}
		sat.Add(0x1p+100)
		states = append(states, sat)
	}
	return states
}

// TestAppendBinaryEquivalence64: the AppendBinary fast path must
// produce bytes identical to the legacy MarshalBinary for every state
// in the corpus — the wire format is canonical, so the two encoders may
// never drift. Appending after a non-empty prefix must leave the prefix
// intact and produce the same encoding.
func TestAppendBinaryEquivalence64(t *testing.T) {
	prefix := []byte{0xde, 0xad, 0xbe, 0xef}
	for i, s := range corpus64(t) {
		want, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("state %d: MarshalBinary: %v", i, err)
		}
		got, err := s.AppendBinary(nil)
		if err != nil {
			t.Fatalf("state %d: AppendBinary: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("state %d: AppendBinary differs from MarshalBinary\n got %x\nwant %x", i, got, want)
		}
		if len(want) != s.EncodedSize() {
			t.Fatalf("state %d: EncodedSize %d, encoding is %d bytes", i, s.EncodedSize(), len(want))
		}
		ext, err := s.AppendBinary(append([]byte(nil), prefix...))
		if err != nil {
			t.Fatalf("state %d: AppendBinary with prefix: %v", i, err)
		}
		if !bytes.Equal(ext[:len(prefix)], prefix) || !bytes.Equal(ext[len(prefix):], want) {
			t.Fatalf("state %d: prefixed AppendBinary corrupted the buffer", i)
		}
		// The appended bytes decode back to an equal state.
		var rt State64
		if err := rt.UnmarshalBinary(got); err != nil {
			t.Fatalf("state %d: decode of AppendBinary output: %v", i, err)
		}
		if !rt.Equal(&s) {
			t.Fatalf("state %d: AppendBinary round trip is not Equal", i)
		}
	}
}

func TestAppendBinaryEquivalence32(t *testing.T) {
	for i, s := range corpus32(t) {
		want, err := s.MarshalBinary()
		if err != nil {
			t.Fatalf("state %d: MarshalBinary: %v", i, err)
		}
		got, err := s.AppendBinary(nil)
		if err != nil {
			t.Fatalf("state %d: AppendBinary: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("state %d: AppendBinary differs from MarshalBinary\n got %x\nwant %x", i, got, want)
		}
		if len(want) != s.EncodedSize() {
			t.Fatalf("state %d: EncodedSize %d, encoding is %d bytes", i, s.EncodedSize(), len(want))
		}
		var rt State32
		if err := rt.UnmarshalBinary(got); err != nil {
			t.Fatalf("state %d: decode of AppendBinary output: %v", i, err)
		}
	}
}

// TestAppendBinaryZeroAlloc pins the fast path: encoding into a buffer
// with sufficient capacity performs no heap allocation. This is the
// property the shuffle's per-key encode loop depends on.
func TestAppendBinaryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation behavior")
	}
	s := NewState64(4)
	s.AddSlice([]float64{1.5, -2.25, 1e300, -1e300, 0x1p-900})
	buf := make([]byte, 0, marshalSize64)
	allocs := testing.AllocsPerRun(200, func() {
		var err error
		buf, err = s.AppendBinary(buf[:0])
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendBinary into a pre-sized buffer: %v allocs/op, want 0", allocs)
	}
}
