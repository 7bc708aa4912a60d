package rsum

// Implemented in vec64_amd64.s.

func cpuHasAVX2() bool

//go:noescape
func scanTileAVX2(tile []float64) (m float64, nan bool)

//go:noescape
func extractTileAVX2(tile []float64, ext0 float64, live int) (sum [MaxLevels]float64)

func init() {
	if cpuHasAVX2() {
		kernel = tileKernel{"avx2", scanTileAVX2, extractTileAVX2}
	}
}
