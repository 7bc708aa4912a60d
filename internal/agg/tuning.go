package agg

import (
	"math/bits"
	"unsafe"

	"repro/internal/core"
)

// Tuning of buffer size and partitioning depth (Section V-C). Both come
// from the size of the table one worker touches while it aggregates one
// partition: groups/F slots (F = fan-out^depth) of key, flags and
// payload. The paper determines the constants offline per machine;
// BenchmarkGroupByCrossover is that offline step here, and every
// constant below names the measurement it comes from.

// CacheBytesPerThread is Eq. 4's budget: the summation buffers of one
// partition's groups should together fill it. The paper's machine has
// a 20 MiB LLC shared by 8 cores and observes the performance cliff
// when the modeled working set exceeds 1 MiB ≈ half the per-core share;
// we adopt the same budget.
const CacheBytesPerThread = 1 << 20

// TableBytesPerThread is the depth model's budget: while one
// partition's groups × slot bytes stay under it, aggregating in place
// beats paying for a radix pass first. It is fitted, not read off the
// hardware: 4 MiB puts the first crossover where
// BenchmarkGroupByCrossover finds it for both reproducible payloads on
// the development machine (2 MiB private L2, large shared L3) —
// between 2^15 and 2^16 groups unbuffered, between 2^13 and 2^14 with
// buffers. Re-measured with the pass on the key's high bits and groups
// finished in place (ns/row, best of 3, depth 0 / depth 1): buffered
// 2^13 7.6 / 11.1, 2^14 9.8 / 10.4, 2^15 14.4 / 10.9; unbuffered 2^15
// 14.6 / 14.5, 2^16 19.5 / 16.4 — the unbuffered crossover where it was,
// the buffered one read half an octave later, inside this VM's ±20 %.
//
// Re-measured once the pass's scatter staged rows in line-sized blocks
// and wrote them with streaming stores (ns/row, best of 9 alternating
// runs, depth 0 / depth 1, plain scatter → staged scatter): buffered
// 2^12 5.5 / 11.1 → 6.0 / 7.6, 2^13 8.3 / 11.6 → 8.6 / 8.7, 2^14 9.7 /
// 12.7 → 12.7 / 9.1, 2^15 16.7 / 11.9 → 19.5 / 9.4, 2^16 25.0 / 13.2 →
// 23.1 / 11.1; unbuffered 2^12 7.4 / 13.4 → 7.5 / 12.4, 2^13 6.1 / 12.4 →
// 8.0 / 13.0, 2^14 10.9 / 13.7 → 9.3 / 14.3, 2^15 10.7 / 15.1 → 10.9 /
// 13.8, 2^16 17.2 / 15.5 → 20.3 / 11.3. Depth 0 runs no pass, so its
// moves are the VM's noise. The buffered crossover came forward to about
// 2^13 groups, where this model's first buffered pass (≈ 10 k groups)
// already sits; the unbuffered one stays between 2^15 and 2^16. The
// constant has not been moved: ROADMAP item 2's single-planner refit
// consumes these cells.
const TableBytesPerThread = 4 << 20

// MaxBufferSize is bszmax, the largest summation buffer used
// (the paper sweeps up to 2^10).
const MaxBufferSize = 1024

// MinBufferSize is the smallest summation buffer worth having. Measured
// (BenchmarkGroupByCrossover, partitions in cache) against the scalar-lane
// AddSliceVec it was set for: 8-value buffers lose to the unbuffered
// accumulator at every group count, 16 lose or tie, 32 tie, 64 and up
// win. BufferSize never returns less; Plan returns 0 — unbuffered —
// instead.
//
// Re-measured on the AVX2 tile kernel (PR 23; floor runs, ns/row, best
// of 3, bsz 8 / 16 / 32 / 64 vs unbuffered at the same depth): 2^10
// groups d0 8.7 / 5.6 / 4.3 / 4.4 vs 11.0; 2^12 d0 8.6 / 8.1 / 7.8 / 7.5
// vs 10.4; 2^14 d1 12.1 / 10.9 / 11.0 / 10.1 vs 13.5; 2^16 d1 14.3 /
// 12.8 / 12.7 / 13.0 vs 16.4 (the d1 cells re-run on the high-bit pass)
// — every buffer size now wins, and at 2^13 groups the d0 bsz-32
// operator (7.6) is ahead of the unbuffered plan (8.4). The constant
// has not been moved: where the floor and the buffered/unbuffered
// crossover belong with this kernel is a planner change with its own
// measurement (ROADMAP item 2).
//
// With the staged streaming-store scatter (the cells of
// TableBytesPerThread, best of 9, buffered vs unbuffered): depth 1 2^12
// bsz1024 7.6 vs 12.4, 2^13 bsz512 8.7 vs 13.0, 2^14 bsz256 9.1 vs 14.3,
// 2^15 bsz128 9.4 vs 13.8, 2^16 bsz64 11.1 vs 11.3; depth 0 bsz32 2^12
// 6.0 vs 7.5, 2^13 8.6 vs 8.0, 2^14 12.7 vs 9.3. At 2^13 the plan (d0
// unbuffered, 8.0) and the d1 bsz512 operator (8.7) are now within
// noise of each other; the floor stays for item 2's refit.
const MinBufferSize = 32

// DefaultFanout is the per-pass radix fan-out f ("modern hardware runs
// partitioning efficiently only up to a certain fan-out").
const DefaultFanout = 256

// slotOverheadBytes is what hashagg.Table stores per slot besides the
// payload: the key and the used and stale flags.
const slotOverheadBytes = 4 + 1 + 1

// BufferSize evaluates Eq. 4: the summation buffers of the groups of
// one partition should together fill the per-thread cache,
//
//	bsz = min{ ceil(|cache| / (ngroups/F · sizeof(ScalarT))), bszmax }.
//
// scalarBytes is sizeof(ScalarT) (8 for float64, 4 for float32); fanout
// is the total partitioning fan-out F = f^d (1 for d = 0). The result
// is rounded down to a power of two (buffers are allocated in cache-
// line-friendly sizes) and clamped to [MinBufferSize, MaxBufferSize].
func BufferSize(ngroups, fanout, scalarBytes int) int {
	return max(eq4(ngroups, fanout, scalarBytes), MinBufferSize)
}

// eq4 is BufferSize without the floor: what really fits, possibly 0.
func eq4(ngroups, fanout, scalarBytes int) int {
	perPart := max(max(ngroups, 1)/max(fanout, 1), 1)
	bsz := min(CacheBytesPerThread/(perPart*scalarBytes), MaxBufferSize)
	return 1 << bits.Len(uint(bsz)) >> 1 // round down to a power of two
}

// fanoutAt is the total fan-out after depth passes of DefaultFanout.
func fanoutAt(depth int) int { return 1 << (depth * bits.TrailingZeros(DefaultFanout)) }

// BufferSizeAt is BufferSize after depth passes of DefaultFanout.
func BufferSizeAt(ngroups, depth, scalarBytes int) int {
	return BufferSize(ngroups, fanoutAt(depth), scalarBytes)
}

// DepthThresholds holds the group counts at which one more level of
// partitioning pays off: Thresholds[i] is the minimum group count for
// depth i+1.
type DepthThresholds []int

// Depth returns the partitioning depth for a given number of groups.
func (t DepthThresholds) Depth(ngroups int) int {
	d := 0
	for _, th := range t {
		if ngroups >= th {
			d++
		}
	}
	return d
}

// firstPass is the group count from which an unpartitioned table of
// payloadBytes payloads outgrows TableBytesPerThread.
func firstPass(payloadBytes int) int {
	return TableBytesPerThread/(payloadBytes+slotOverheadBytes) + 1
}

// Depth thresholds per operator configuration. The first is the table
// model at that configuration's slot size. The second is not: the same
// model would put it 256 times later, but a second pass was never
// measured to win — the best depth-1 operator is ahead of the best
// depth-2 one at every group count BenchmarkGroupByCrossover reaches
// (and still at 2^25 groups), because a depth-1 partition's table that
// has left L2 sits in a last-level cache, not in memory. Until a
// machine shows the second crossover, it stays where no realistic
// input reaches it. The paper reports {2^16, 2^25} (built-ins),
// ≈{2^15, 2^22} (unbuffered repro) and {2^10, 2^18} (buffered repro)
// on its Haswell.
var (
	// ThresholdsBuiltin: depth crossovers for built-in scalar types.
	ThresholdsBuiltin = DepthThresholds{firstPass(8), 1 << 26}
	// ThresholdsReproUnbuffered: crossovers for unbuffered repro types.
	ThresholdsReproUnbuffered = DepthThresholds{firstPass(int(unsafe.Sizeof(core.Sum64{}))), 1 << 25}
	// ThresholdsReproBuffered: crossovers for buffered repro types,
	// whose slot carries at least a MinBufferSize buffer.
	ThresholdsReproBuffered = DepthThresholds{firstPass(int(unsafe.Sizeof(core.Buffered64{})) + MinBufferSize*8), 1 << 26}
)

// Plan picks depth and summation-buffer size for a reproducible GROUP
// BY SUM of rows values of scalarBytes each into about groups groups
// (never more than rows); bsz 0 means no buffers (core.Sum64 / Sum32
// payloads). Buffers are PlanBuffer at the buffered model's depth. When
// it plans none, the plan is the unbuffered operator at its own depth.
func Plan(groups, rows, scalarBytes int) (depth, bsz int) {
	groups = max(min(groups, rows), 1)
	depth = ThresholdsReproBuffered.Depth(groups)
	bsz = PlanBuffer(max(groups/fanoutAt(depth), 1), rows/groups, scalarBytes)
	if bsz == 0 {
		return ThresholdsReproUnbuffered.Depth(groups), 0
	}
	return depth, bsz
}

// PlanBuffer is Plan's buffer decision for one aggregation table:
// groups is the number of groups the table holds at once (one
// partition's), perGroup the number of values a group is expected to
// receive, scalarBytes the bytes one row appends to a group's buffers
// (8 × the summed columns for a tuple of sums that fill in lock-step).
// It is Eq. 4, capped by what a group receives (a buffer that cannot
// fill only spends cache); when fewer than MinBufferSize values per
// group fit or arrive it returns 0 — no buffer, never a tiny one.
func PlanBuffer(groups, perGroup, scalarBytes int) int {
	fill := 1 << bits.Len(uint(max(perGroup, 1)-1)) // next power of two ≥ perGroup
	bsz := min(eq4(groups, 1, scalarBytes), fill)
	if bsz < MinBufferSize {
		return 0
	}
	return bsz
}
