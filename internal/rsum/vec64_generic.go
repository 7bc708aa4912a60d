package rsum

import "math"

// genericKernel is the tile primitive in Go: compiled everywhere, the
// only implementation off amd64 and the oracle for the assembly on it.
var genericKernel = tileKernel{"generic", scanTileGeneric, extractTileGeneric}

// kernel is the implementation AddSlice and AddSliceVec run on; an
// architecture with a faster one replaces it once, at init.
var kernel = genericKernel

func scanTileGeneric(tile []float64) (m float64, nan bool) {
	for _, b := range tile {
		if a := math.Abs(b); a > m {
			m = a
		}
		if b != b { // NaN never wins the max comparison; check explicitly
			return 0, true
		}
	}
	return m, false
}

func extractTileGeneric(tile []float64, ext0 float64, live int) (sum [MaxLevels]float64) {
	// Exact: the extractors of live levels are normal numbers.
	var ext [MaxLevels]float64
	for l, e := 0, ext0; l < live; l, e = l+1, e*down64 {
		ext[l] = e
	}
	return extractLanes(tile, &ext, live)
}

// extractLanes is the tile primitive for any level count and either
// precision: it splits every group of V values of tile against
// ext[:live], sums each level's contributions in V lanes that start at
// zero, and returns the lane totals.
func extractLanes[F float32 | float64](tile []F, ext *[MaxLevels]F, live int) (sum [MaxLevels]F) {
	var acc [MaxLevels][V]F
	for ; len(tile) >= V; tile = tile[V:] {
		r0, r1, r2, r3 := tile[0], tile[1], tile[2], tile[3]
		for l := 0; l < live; l++ {
			e := ext[l]
			q0 := (r0 + e) - e
			q1 := (r1 + e) - e
			q2 := (r2 + e) - e
			q3 := (r3 + e) - e
			acc[l][0] += q0
			acc[l][1] += q1
			acc[l][2] += q2
			acc[l][3] += q3
			r0 -= q0
			r1 -= q1
			r2 -= q2
			r3 -= q3
		}
	}
	for l := 0; l < live; l++ {
		sum[l] = (acc[l][0] + acc[l][1]) + (acc[l][2] + acc[l][3])
	}
	return sum
}
