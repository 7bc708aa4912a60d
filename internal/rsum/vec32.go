package rsum

import "repro/internal/floatbits"

// AddSliceVec absorbs a slice of float32 values using the vectorized
// kernel (Algorithm 3); see vec64.go for the structure and the exactness
// argument. Single precision uses the same lane count V and tiles of
// NB32 = 16 values (2^(m−W−1) for m = 23, W = 18): 16 contributions of at
// most 2^(e−6) total at most 0.25·ufp, exact in 24 bits. The tile
// primitive is the Go one only — nothing on a hot path sums float32.
func (s *State32) AddSliceVec(bs []float32) {
	var ext [MaxLevels]float32
	for len(bs) > 0 {
		n := min(len(bs), floatbits.NB32)
		tile := bs[:n]
		bs = bs[n:]
		if !s.admit(tile) {
			continue
		}
		body := n &^ (V - 1)
		if body > 0 {
			live := s.live()
			for l := range live {
				ext[l] = floatbits.Extractor32(s.levelExp(l))
			}
			sum := extractLanes(tile[:body], &ext, live)
			for l := 0; l < live; l++ {
				s.s[l] += sum[l] // exact
			}
		}
		for _, b := range tile[body:] {
			s.extract(b)
		}
		s.spend(n)
	}
}
