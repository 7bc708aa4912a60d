package rsum

import (
	"math"
	"testing"

	"repro/internal/floatbits"
)

// The carry step's references: propagation, Merge and Value as Algorithm
// 2 writes them, with ⌊(S − 1.5·ufp)/(0.25·ufp)⌋ quarters moved per
// level, correct for any S. The state's carry step is two comparisons
// that are only correct inside the package doc's [1.25, 2)·ufp window;
// TestCarryStepAtWindowEnds holds it to these at both ends.

func floorPropagate64(s *State64) {
	for l := 0; l < int(s.levels) && s.levelExp(l) >= LowestLevelExp64; l++ {
		ufp := floatbits.Pow2_64(s.levelExp(l))
		d := math.Floor((s.s[l] - 1.5*ufp) / (0.25 * ufp))
		s.s[l] -= d * (0.25 * ufp)
		s.c[l] += int64(d)
	}
	s.nAdds = 0
}

func floorMerge64(s, o *State64) {
	if !o.init {
		return
	}
	if !s.init {
		s.s, s.c, s.eTop, s.nAdds, s.init = o.s, o.c, o.eTop, o.nAdds, o.init
		return
	}
	s.raiseTo(int(o.eTop))
	floorPropagate64(s)
	shift := (int(s.eTop) - int(o.eTop)) / floatbits.W64
	for lo := 0; lo+shift < int(s.levels) && s.levelExp(lo+shift) >= LowestLevelExp64; lo++ {
		l := lo + shift
		ufp := floatbits.Pow2_64(s.levelExp(l))
		net := o.s[lo] - 1.5*ufp
		if net >= 0.25*ufp {
			net -= 0.25 * ufp
			s.c[l]++
		}
		s.s[l] += net
		s.c[l] += o.c[lo]
		d := math.Floor((s.s[l] - 1.5*ufp) / (0.25 * ufp))
		s.s[l] -= d * (0.25 * ufp)
		s.c[l] += int64(d)
	}
	s.nAdds = 0
}

func floorValue64(s State64) float64 {
	floorPropagate64(&s)
	q := 0.0
	for l := int(s.levels) - 1; l >= 0; l-- {
		if e := s.levelExp(l); e >= LowestLevelExp64 {
			ufp := floatbits.Pow2_64(e)
			q += (s.s[l] - 1.5*ufp) + 0.25*ufp*float64(s.c[l])
		}
	}
	return q
}

func floorPropagate32(s *State32) {
	for l := 0; l < int(s.levels) && s.levelExp(l) >= LowestLevelExp32; l++ {
		ufp := floatbits.Pow2_32(s.levelExp(l))
		d := float32(math.Floor(float64((s.s[l] - 1.5*ufp) / (0.25 * ufp))))
		s.s[l] -= d * (0.25 * ufp)
		s.c[l] += int64(d)
	}
	s.nAdds = 0
}

func floorMerge32(s, o *State32) {
	if !o.init {
		return
	}
	if !s.init {
		s.s, s.c, s.eTop, s.nAdds, s.init = o.s, o.c, o.eTop, o.nAdds, o.init
		return
	}
	s.raiseTo(int(o.eTop))
	floorPropagate32(s)
	shift := (int(s.eTop) - int(o.eTop)) / floatbits.W32
	for lo := 0; lo+shift < int(s.levels) && s.levelExp(lo+shift) >= LowestLevelExp32; lo++ {
		l := lo + shift
		ufp := floatbits.Pow2_32(s.levelExp(l))
		net := o.s[lo] - 1.5*ufp
		if net >= 0.25*ufp {
			net -= 0.25 * ufp
			s.c[l]++
		}
		s.s[l] += net
		s.c[l] += o.c[lo]
		d := float32(math.Floor(float64((s.s[l] - 1.5*ufp) / (0.25 * ufp))))
		s.s[l] -= d * (0.25 * ufp)
		s.c[l] += int64(d)
	}
	s.nAdds = 0
}

func floorValue32(s State32) float32 {
	floorPropagate32(&s)
	q := float32(0)
	for l := int(s.levels) - 1; l >= 0; l-- {
		if e := s.levelExp(l); e >= LowestLevelExp32 {
			ufp := floatbits.Pow2_32(e)
			q += (s.s[l] - 1.5*ufp) + 0.25*ufp*float32(s.c[l])
		}
	}
	return q
}

// sameState64 compares every field, running sums by their bits.
func sameState64(t *testing.T, what string, got, want *State64) {
	t.Helper()
	g, w := *got, *want
	for l := range g.s {
		if math.Float64bits(g.s[l]) != math.Float64bits(w.s[l]) {
			t.Fatalf("%s: S(%d) = %x, reference %x", what, l, math.Float64bits(g.s[l]), math.Float64bits(w.s[l]))
		}
	}
	g.s = w.s
	if g != w {
		t.Fatalf("%s: state %+v, reference %+v", what, g, w)
	}
}

func sameState32(t *testing.T, what string, got, want *State32) {
	t.Helper()
	g, w := *got, *want
	for l := range g.s {
		if math.Float32bits(g.s[l]) != math.Float32bits(w.s[l]) {
			t.Fatalf("%s: S(%d) = %x, reference %x", what, l, math.Float32bits(g.s[l]), math.Float32bits(w.s[l]))
		}
	}
	g.s = w.s
	if g != w {
		t.Fatalf("%s: state %+v, reference %+v", what, g, w)
	}
}

// TestCarryStepAtWindowEnds drives level 1 of a state to each end of the
// [1.25, 2)·ufp window with a full budget of same-sign maximal
// contributions — 1.5·ufp − 0.25·ufp = 1.25·ufp from a fresh level, and
// (1.75·ufp − ulp) + 0.25·ufp = 2·ufp − ulp from the top of the
// propagated window — and then holds propagate, Merge in both orders
// (against window-end, empty, lower, higher and ordinary states), Value
// and MarshalBinary to the ⌊·⌋ references field by field.
func TestCarryStepAtWindowEnds(t *testing.T) {
	// eTop = 40: bmax is the largest value that does not raise it, and it
	// contributes 2^27 = 2^(40−13); ulp is the level's ulp, 2^(40−52).
	const bmax, ulp, ufp = 0x1p27 - 0x1p-26, 0x1p-12, 0x1p40
	for _, L := range []int{1, 2, 3} {
		edge := func(sign float64, head ...float64) State64 {
			s := NewState64(L)
			for _, x := range head {
				s.Add(x)
			}
			s.raise(floatbits.Exponent64(bmax))
			s.propagate()
			for range floatbits.NB64 {
				s.extract(sign * bmax) // the budget's worth, no propagation
			}
			return s
		}
		low, high := edge(-1), edge(1, -ulp)
		if low.s[0] != 1.25*ufp || high.s[0] != 2*ufp-ulp {
			t.Fatalf("L=%d: window ends not reached: %g·ufp, %g·ufp", L, low.s[0]/ufp, high.s[0]/ufp)
		}
		others := map[string]State64{"low": low, "high": high, "empty": NewState64(L)}
		for name, xs := range map[string][]float64{
			"ordinary": {1.5, -0.75, 1e-9, 3},
			"lower":    {1e-20, -3e-21},
			"higher":   {1e30, 7, -1e30},
			"raised":   {0x1p30, bmax, -bmax},
		} {
			o := NewState64(L)
			for _, x := range xs {
				o.Add(x)
			}
			others[name] = o
		}
		for name, x := range map[string]State64{"1.25·ufp": low, "2·ufp−ulp": high} {
			was := x
			got, want := x, x
			got.propagate()
			floorPropagate64(&want)
			sameState64(t, name+": propagate", &got, &want)

			for oname, o := range others {
				got, want = x, x
				got.Merge(&o)
				floorMerge64(&want, &o)
				sameState64(t, name+" ← "+oname+": Merge", &got, &want)
				got, want = o, o
				got.Merge(&x)
				floorMerge64(&want, &x)
				sameState64(t, oname+" ← "+name+": Merge", &got, &want)
			}

			if v, w := x.Value(), floorValue64(x); math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("L=%d %s: Value %x, reference %x", L, name, math.Float64bits(v), math.Float64bits(w))
			}
			enc, err := x.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var dec State64
			if err := dec.UnmarshalBinary(enc); err != nil {
				t.Fatalf("L=%d %s: own encoding rejected: %v", L, name, err)
			}
			want = x
			floorPropagate64(&want)
			sameState64(t, name+": MarshalBinary", &dec, &want)
			sameState64(t, name+": left unmodified", &x, &was)
		}
	}
}

// TestCarryStepAtWindowEnds32 is TestCarryStepAtWindowEnds in single
// precision: eTop = 18, NB32 = 16 contributions of 2^(18−6).
func TestCarryStepAtWindowEnds32(t *testing.T) {
	const bmax, ulp, ufp = float32(0x1p12 - 0x1p-12), float32(0x1p-5), float32(0x1p18)
	for _, L := range []int{1, 2, 3} {
		edge := func(sign float32, head ...float32) State32 {
			s := NewState32(L)
			for _, x := range head {
				s.Add(x)
			}
			s.raise(floatbits.Exponent32(bmax))
			s.propagate()
			for range floatbits.NB32 {
				s.extract(sign * bmax)
			}
			return s
		}
		low, high := edge(-1), edge(1, -ulp)
		if low.s[0] != 1.25*ufp || high.s[0] != 2*ufp-ulp {
			t.Fatalf("L=%d: window ends not reached: %g·ufp, %g·ufp", L, low.s[0]/ufp, high.s[0]/ufp)
		}
		others := map[string]State32{"low": low, "high": high, "empty": NewState32(L)}
		for name, xs := range map[string][]float32{
			"ordinary": {1.5, -0.75, 1e-4, 3},
			"lower":    {1e-9, -3e-10},
			"higher":   {1e20, 7, -1e20},
			"raised":   {0x1p13, bmax, -bmax},
		} {
			o := NewState32(L)
			for _, x := range xs {
				o.Add(x)
			}
			others[name] = o
		}
		for name, x := range map[string]State32{"1.25·ufp": low, "2·ufp−ulp": high} {
			was := x
			got, want := x, x
			got.propagate()
			floorPropagate32(&want)
			sameState32(t, name+": propagate", &got, &want)

			for oname, o := range others {
				got, want = x, x
				got.Merge(&o)
				floorMerge32(&want, &o)
				sameState32(t, name+" ← "+oname+": Merge", &got, &want)
				got, want = o, o
				got.Merge(&x)
				floorMerge32(&want, &x)
				sameState32(t, oname+" ← "+name+": Merge", &got, &want)
			}

			if v, w := x.Value(), floorValue32(x); math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("L=%d %s: Value %x, reference %x", L, name, math.Float32bits(v), math.Float32bits(w))
			}
			enc, err := x.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			var dec State32
			if err := dec.UnmarshalBinary(enc); err != nil {
				t.Fatalf("L=%d %s: own encoding rejected: %v", L, name, err)
			}
			want = x
			floorPropagate32(&want)
			sameState32(t, name+": MarshalBinary", &dec, &want)
			sameState32(t, name+": left unmodified", &x, &was)
		}
	}
}
