package partition

import "unsafe"

// streamStore writes blocks with SSE2 non-temporal stores
// (store_amd64.s), which skip the read-for-ownership of a destination
// line that misses the cache. SSE2 is part of every amd64, so no CPUID
// check guards it.
var streamStore = blockStore{"sse2", streamLinesSSE2, sfence}

// Implemented in store_amd64.s.

//go:noescape
func streamLinesSSE2(dst, src unsafe.Pointer, n int)

func sfence()
