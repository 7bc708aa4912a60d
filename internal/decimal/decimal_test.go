package decimal

import (
	"math"
	"math/big"
	"testing"
	"testing/quick"
)

func TestInt128AddMatchesBig(t *testing.T) {
	f := func(aHi, bHi int64, aLo, bLo uint64) bool {
		a := Int128{Hi: aHi, Lo: aLo}
		b := Int128{Hi: bHi, Lo: bLo}
		got := a.Add(b).Big()
		want := new(big.Int).Add(a.Big(), b.Big())
		// Wrap to 128 bits two's complement.
		want = wrap128(want)
		return got.Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

func TestInt128SubNegMatchesBig(t *testing.T) {
	f := func(aHi, bHi int64, aLo, bLo uint64) bool {
		a := Int128{Hi: aHi, Lo: aLo}
		b := Int128{Hi: bHi, Lo: bLo}
		if a.Sub(b).Big().Cmp(wrap128(new(big.Int).Sub(a.Big(), b.Big()))) != 0 {
			return false
		}
		return a.Neg().Big().Cmp(wrap128(new(big.Int).Neg(a.Big()))) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

func wrap128(x *big.Int) *big.Int {
	mod := new(big.Int).Lsh(big.NewInt(1), 128)
	x = new(big.Int).Mod(x, mod)
	half := new(big.Int).Lsh(big.NewInt(1), 127)
	if x.Cmp(half) >= 0 {
		x.Sub(x, mod)
	}
	return x
}

func TestInt128AddInt64(t *testing.T) {
	f := func(hi int64, lo uint64, v int64) bool {
		x := Int128{Hi: hi, Lo: lo}
		got := x.AddInt64(v)
		want := x.Add(Int128FromInt64(v))
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
}

func TestInt128AddChecked(t *testing.T) {
	max := Int128{Hi: math.MaxInt64, Lo: math.MaxUint64}
	one := Int128FromInt64(1)
	if _, ov := max.AddChecked(one); !ov {
		t.Error("max+1 did not report overflow")
	}
	if r, ov := one.AddChecked(one); ov || r != Int128FromInt64(2) {
		t.Error("1+1 misbehaved")
	}
	min := Int128{Hi: math.MinInt64, Lo: 0}
	if _, ov := min.AddChecked(Int128FromInt64(-1)); !ov {
		t.Error("min−1 did not report overflow")
	}
	// Mixed signs never overflow.
	if _, ov := max.AddChecked(Int128FromInt64(-5)); ov {
		t.Error("mixed-sign add reported overflow")
	}
}

func TestInt128CmpSign(t *testing.T) {
	vals := []Int128{
		Int128FromInt64(-3), Int128FromInt64(0), Int128FromInt64(7),
		{Hi: 1, Lo: 0}, {Hi: -1, Lo: ^uint64(0)}, // = −1
		{Hi: math.MinInt64, Lo: 0},
	}
	for i, a := range vals {
		for j, b := range vals {
			want := a.Big().Cmp(b.Big())
			if got := a.Cmp(b); got != want {
				t.Errorf("Cmp(%v,%v) = %d, want %d (i=%d j=%d)", a, b, got, want, i, j)
			}
		}
		if a.Sign() != a.Big().Sign() {
			t.Errorf("Sign(%v) mismatch", a)
		}
	}
}

func TestInt128SummationAssociative(t *testing.T) {
	// Wrap-around integer addition is associative ⇒ reproducible.
	f := func(vs []int64, seed uint8) bool {
		sum1 := Int128{}
		for _, v := range vs {
			sum1 = sum1.AddInt64(v)
		}
		// Sum a rotated permutation.
		k := 0
		if len(vs) > 0 {
			k = int(seed) % len(vs)
		}
		sum2 := Int128{}
		for i := range vs {
			sum2 = sum2.AddInt64(vs[(i+k)%len(vs)])
		}
		return sum1 == sum2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestInt128BigRoundtrip(t *testing.T) {
	f := func(hi int64, lo uint64) bool {
		x := Int128{Hi: hi, Lo: lo}
		y, ok := Int128FromBig(x.Big())
		return ok && x == y
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Error(err)
	}
	if _, ok := Int128FromBig(new(big.Int).Lsh(big.NewInt(1), 127)); ok {
		t.Error("2^127 should not fit")
	}
}

func TestInt128Float64(t *testing.T) {
	if got := Int128FromInt64(1 << 40).Float64(); got != math.Ldexp(1, 40) {
		t.Errorf("Float64 = %g", got)
	}
	big128 := Int128{Hi: 1, Lo: 0} // 2^64
	if got := big128.Float64(); got != math.Ldexp(1, 64) {
		t.Errorf("Float64(2^64) = %g", got)
	}
}
