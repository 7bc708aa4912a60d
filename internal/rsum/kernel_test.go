package rsum

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelsUnderTest returns the generic tile kernel and, where the init
// check installed a different one (AVX2 on amd64), that one too.
func kernelsUnderTest(t testing.TB) []*tileKernel {
	ks := []*tileKernel{&genericKernel}
	if kernel.name != genericKernel.name {
		return append(ks, &kernel)
	}
	t.Logf("no vector tile kernel on this CPU: only %q is exercised", genericKernel.name)
	return ks
}

// kernelInputs draws n values of one input class: 0 well-scaled normals,
// 1 spreads over 2^±300, 2 the full exponent range, 3 {−1, 0, +1},
// 4 near-subnormals. sprinkle overwrites about one value in 200 with a
// special (NaN, ±Inf, ±2^990, −0).
func kernelInputs(rng *rand.Rand, n, class int, sprinkle bool) []float64 {
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0x1p990, -0x1p990, math.Copysign(0, -1)}
	xs := make([]float64, n)
	for i := range xs {
		x := rng.Float64() - 0.5
		switch class {
		case 0:
			x *= 1000
		case 1:
			x = math.Ldexp(x, rng.Intn(601)-300)
		case 2:
			x = math.Ldexp(x, rng.Intn(2060)-1074)
		case 3:
			x = float64(rng.Intn(3) - 1)
		default:
			x = math.Ldexp(x, -1015-rng.Intn(60))
		}
		if sprinkle && rng.Intn(200) == 0 {
			x = specials[rng.Intn(len(specials))]
		}
		xs[i] = x
	}
	return xs
}

// mustMatchAdd fails unless got is Equal to and marshals like a state
// that absorbed xs one Add at a time.
func mustMatchAdd(t *testing.T, got *State64, xs []float64, what string) {
	t.Helper()
	ref := NewState64(got.Levels())
	for _, x := range xs {
		ref.Add(x)
	}
	if !got.Equal(&ref) {
		t.Fatalf("%s: state differs from the Add loop", what)
	}
	gb, _ := got.MarshalBinary()
	rb, _ := ref.MarshalBinary()
	if !bytes.Equal(gb, rb) {
		t.Fatalf("%s: encoding differs from the Add loop:\n got %x\nwant %x", what, gb, rb)
	}
}

// TestKernelImplsAgree holds both tile kernels, under the one driver, to
// the Add loop: whole slices and random re-chunkings, every level count,
// lengths that leave the group loop empty or a tail behind it, and every
// input class with and without specials.
func TestKernelImplsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	lengths := []int{0, 1, 2, 3, 4, 5, 7, 8, 31, 32, 33, 63, 64, 511, 513, 2047, 2048, 2049, 3000}
	for _, k := range kernelsUnderTest(t) {
		for L := 1; L <= MaxLevels; L++ {
			for class := 0; class < 5; class++ {
				for _, sprinkle := range []bool{false, true} {
					for _, n := range append(lengths, rng.Intn(3001)) {
						xs := kernelInputs(rng, n, class, sprinkle)
						what := fmt.Sprintf("%s L=%d class=%d sprinkle=%v n=%d", k.name, L, class, sprinkle, n)

						whole := NewState64(L)
						whole.addSliceVec(xs, k)
						mustMatchAdd(t, &whole, xs, what)

						chunked := NewState64(L)
						for rest := xs; len(rest) > 0; {
							c := 1 + rng.Intn(min(len(rest), 1+rng.Intn(700)))
							chunked.addSliceVec(rest[:c], k)
							rest = rest[c:]
						}
						mustMatchAdd(t, &chunked, xs, what+" re-chunked")
					}
				}
			}
		}
	}
}

// TestKernelBudgetEdge drives S to the last representable multiple of ulp
// in its binade, 2·ufp − ulp, with a call that uses the carry budget up
// exactly, and then sends one more value through Add (directly, and by
// way of a tile that holds a NaN): Add extracts before it looks at the
// budget, so a slice kernel that returns with the budget spent makes
// that extraction round. bmax is the largest value level 1 takes without
// rising; its contribution is ufp/2^13 (float32: ufp/2^6).
func TestKernelBudgetEdge(t *testing.T) {
	const bmax, ulp = 0x1p27 - 0x1p-26, 0x1p-12 // eTop = 40
	head := []float64{bmax, -bmax, -ulp}
	full := make([]float64, 2048)
	for i := range full {
		full[i] = bmax
	}
	all := append(append(append([]float64{}, head...), full...), bmax, math.NaN())
	feeds := map[string]func(s *State64, xs []float64){"AddSlice": (*State64).AddSlice}
	for _, k := range kernelsUnderTest(t) {
		feeds[k.name] = func(s *State64, xs []float64) { s.addSliceVec(xs, k) }
	}
	for name, feed := range feeds {
		t.Run(name, func(t *testing.T) {
			viaTile, viaAdd := NewState64(1), NewState64(1)
			feed(&viaTile, head)
			feed(&viaTile, full)
			feed(&viaTile, []float64{bmax, math.NaN()})
			mustMatchAdd(t, &viaTile, all, "then a tile with a NaN")
			feed(&viaAdd, head)
			feed(&viaAdd, full)
			viaAdd.Add(bmax)
			viaAdd.Add(math.NaN())
			mustMatchAdd(t, &viaAdd, all, "then Add")
		})
	}

	const bmax32, ulp32 = float32(0x1p12 - 0x1p-12), float32(0x1p-5) // eTop = 18
	head32 := []float32{bmax32, -bmax32, -ulp32}
	full32 := make([]float32, 16)
	for i := range full32 {
		full32[i] = bmax32
	}
	nan32 := float32(math.NaN())
	ref := NewState32(1)
	for _, x := range append(append(append([]float32{}, head32...), full32...), bmax32, nan32) {
		ref.Add(x)
	}
	for name, feed := range map[string]func(s *State32, xs []float32){
		"AddSlice": (*State32).AddSlice, "AddSliceVec": (*State32).AddSliceVec,
	} {
		t.Run("float32/"+name, func(t *testing.T) {
			s := NewState32(1)
			feed(&s, head32)
			feed(&s, full32)
			feed(&s, []float32{bmax32, nan32})
			if !s.Equal(&ref) {
				t.Fatal("then a tile with a NaN: state differs from the Add loop")
			}
		})
	}
}

// TestAddSliceExtentMatchesAddSliceVec holds AddSliceExtent, given the
// slice's Extent64, to AddSliceVec and to the Add loop — encoded bytes —
// on both tile kernels at every level count: from a fresh state and from
// states an earlier slice left with their top above and below the new
// slice's; at lengths around the tile size with the largest magnitude in
// the last tile (AddSliceVec raises there, AddSliceExtent before the
// first); over slices of only ±0, of only subnormals and with a NaN, an
// infinity or 2^1000; and where the carry budget runs out partway
// through the slice, with the running sum at the top of its window.
func TestAddSliceExtentMatchesAddSliceVec(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for _, c := range []struct {
		xs   []float64
		want Extent
	}{
		{nil, ExtentZero}, {[]float64{0, math.Copysign(0, -1)}, ExtentZero},
		{[]float64{1, math.NaN()}, ExtentSpecial}, {[]float64{math.Inf(-1)}, ExtentSpecial}, {[]float64{0, 0x1p987}, ExtentSpecial},
		{[]float64{1, -0x1.fp986}, 986}, {[]float64{0x1p-1074}, -1074}, {[]float64{0, 3, -1}, 1},
	} {
		if got := Extent64(c.xs); got != c.want {
			t.Errorf("Extent64(%v) = %d, want %d", c.xs, got, c.want)
		}
	}

	contents := map[string]func(n int) []float64{
		"largest last": func(n int) []float64 {
			xs := kernelInputs(rng, n, 1, false)
			for i := range xs {
				xs[i] = math.Ldexp(xs[i], -400)
			}
			xs[n-1] = -0x1.8p60
			return xs
		},
		"zeros": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = math.Copysign(0, float64(i%3)-1)
			}
			return xs
		},
		"subnormals": func(n int) []float64 {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = math.Float64frombits(rng.Uint64()&(1<<52-1) | uint64(i%2)<<63)
			}
			return xs
		},
		"NaN":    special(rng, math.NaN()),
		"+Inf":   special(rng, math.Inf(1)),
		"-Inf":   special(rng, math.Inf(-1)),
		"2^1000": special(rng, 0x1p1000),
	}
	starts := map[string][]float64{
		"fresh":     nil,
		"top above": {0x1p200, -0x1p150, 1},
		"top below": {0x1p-600, -0x1p-700, 0x1p-1060},
	}
	for _, k := range kernelsUnderTest(t) {
		for L := 1; L <= MaxLevels; L++ {
			for start, head := range starts {
				for what, fill := range contents {
					for _, n := range []int{1, 3, 4, 2047, 2048, 2049, 6000} {
						xs := fill(n)
						extentMatchesVec(t, fmt.Sprintf("%s L=%d from %s, %s, n=%d", k.name, L, start, what, n), k, L, [][]float64{head}, xs)
					}
				}
			}
		}

		// The carry budget: bmax contributes ufp/2^13 to level 1, so
		// 2048 of them move S by a quarter. Head and full leave S at
		// 1.75·ufp − ulp, a propagated window's top, with the budget
		// unspent; one more bmax spends a unit of it. A slice of bmax
		// that does not fit the rest must propagate before its first
		// tile, or S passes 2·ufp and rounds.
		const bmax, ulp = 0x1p27 - 0x1p-26, 0x1p-12
		full := make([]float64, 6000)
		for i := range full {
			full[i] = bmax
		}
		for L := 1; L <= MaxLevels; L++ {
			for _, n := range []int{2048, 2049, 6000} {
				heads := [][]float64{{bmax, -bmax, -ulp}, full[:2048], {bmax}}
				extentMatchesVec(t, fmt.Sprintf("%s L=%d, budget out after 1 of %d values", k.name, L, n), k, L, heads, full[:n])
			}
		}
	}
}

// special returns a fill of n values spread over 2^±300 with x at
// value n/2.
func special(rng *rand.Rand, x float64) func(n int) []float64 {
	return func(n int) []float64 {
		xs := kernelInputs(rng, n, 1, false)
		xs[n/2] = x
		return xs
	}
}

// extentMatchesVec fails unless a state that took heads by AddSliceVec
// and then xs by AddSliceExtent encodes as one that took xs by
// AddSliceVec instead and as one that took xs one Add at a time.
func extentMatchesVec(t *testing.T, what string, k *tileKernel, L int, heads [][]float64, xs []float64) {
	t.Helper()
	var enc [3][]byte
	for i := range enc {
		s := NewState64(L)
		for _, h := range heads {
			s.addSliceVec(h, k)
		}
		switch i {
		case 0:
			s.addSliceExtent(xs, extent64(xs, k), k)
		case 1:
			s.addSliceVec(xs, k)
		default:
			for _, x := range xs {
				s.Add(x)
			}
		}
		enc[i], _ = s.MarshalBinary()
	}
	if !bytes.Equal(enc[0], enc[1]) || !bytes.Equal(enc[0], enc[2]) {
		t.Fatalf("%s: AddSliceExtent encodes\n%x\nAddSliceVec\n%x\nthe Add loop\n%x", what, enc[0], enc[1], enc[2])
	}
}

// TestKernelReadsOnlyItsTile runs both kernels on sub-slices at every
// element offset 0..7 of a backing array whose other elements are ±2^900:
// a loop that reads one group too far, or starts one too early, folds a
// poison value in and no longer matches the Add loop.
func TestKernelReadsOnlyItsTile(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, k := range kernelsUnderTest(t) {
		for _, L := range []int{1, 2, 4, MaxLevels} {
			for off := 0; off < 8; off++ {
				for n := 0; n <= 70; n++ {
					back := make([]float64, off+n+8)
					for i := range back {
						back[i] = math.Copysign(0x1p900, float64(i%2)-0.5)
					}
					xs := back[off : off+n : off+n]
					copy(xs, kernelInputs(rng, n, []int{0, 3, 4}[n%3], false))

					s := NewState64(L)
					s.addSliceVec(xs, k)
					mustMatchAdd(t, &s, xs, fmt.Sprintf("%s L=%d offset=%d n=%d", k.name, L, off, n))

					if m, nan := k.scan(xs); nan || m >= 0x1p900 {
						t.Fatalf("%s offset=%d n=%d: scan saw max %g nan %v", k.name, off, n, m, nan)
					}
				}
			}
		}
	}
}

// BenchmarkKernel times AddSliceVec per tile kernel, buffer size and
// level count; "all" hands the driver the whole input in one call.
func BenchmarkKernel(b *testing.B) {
	const n = 1 << 16
	xs := kernelInputs(rand.New(rand.NewSource(31)), n, 0, false)
	for _, k := range kernelsUnderTest(b) {
		for _, L := range []int{2, 4} {
			for _, bsz := range []int{32, 64, 512, n} {
				name := fmt.Sprintf("%s/L%d/bsz%d", k.name, L, bsz)
				if bsz == n {
					name = fmt.Sprintf("%s/L%d/all", k.name, L)
				}
				b.Run(name, func(b *testing.B) {
					b.SetBytes(8 * n)
					sum := 0.0
					for i := 0; i < b.N; i++ {
						s := NewState64(L)
						for j := 0; j < n; j += bsz {
							s.addSliceVec(xs[j:j+bsz], k)
						}
						sum += s.Value()
					}
					benchSink = sum
				})
			}
		}
	}
}

var benchSink float64
