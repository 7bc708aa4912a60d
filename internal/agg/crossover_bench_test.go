package agg

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

var crossoverSink int

// BenchmarkGroupByCrossover is the one command that re-derives the
// constants in tuning.go — TableBytesPerThread, MinBufferSize and the
// second-pass thresholds:
//
//	go test -run '^$' -bench Crossover ./internal/agg
//
// It times PARTITIONANDAGGREGATE at group counts from 2^10 to 2^22
// (every power of two across the first crossovers, every other one
// elsewhere), at depth 0, 1 and 2, buffered (Eq. 4 at that depth, capped
// by rows/groups, floored at MinBufferSize) and unbuffered, and reports
// ns/row: 2^22 rows up to 2^20 groups, four rows per group above (depth
// 0 is left out there: its tables run to gigabytes and it is already
// three times behind at 2^20). The planner's pick for each group count
// is marked "*" in the sub-benchmark name; it should be the fastest of
// its group count, or within noise of it. Where the pick is buffered,
// "floor" runs repeat it with 8- to 64-value buffers: MinBufferSize is
// the smallest that does not lose to unbuffered at the same depth.
func BenchmarkGroupByCrossover(b *testing.B) {
	const maxLg = 22
	allVals := workload.Values64(2, 4<<maxLg, workload.MixedMag)
	for _, lg := range []int{10, 12, 13, 14, 15, 16, 18, 20, maxLg} {
		groups := 1 << lg
		rows := max(1<<22, 4*groups)
		keys := workload.Keys(1, rows, uint32(groups))
		vals := allVals[:rows]
		planDepth, planBsz := Plan(groups, rows, 8)
		for depth := 0; depth <= 2; depth++ {
			if depth == 0 && lg > 20 {
				continue
			}
			opt := Options{Depth: depth, GroupHint: groups}
			bsz := max(min(BufferSizeAt(groups, depth, 8), rows/groups), MinBufferSize)
			mark := func(buffered bool) string {
				if depth == planDepth && buffered == (planBsz > 0) {
					return "*"
				}
				return ""
			}
			buffered := func(name string, bsz int) {
				b.Run(fmt.Sprintf("g2^%d/d%d/%s", lg, depth, name), func(b *testing.B) {
					newA := func() core.Buffered64 { return core.NewBuffered64(core.DefaultLevels, bsz) }
					for b.Loop() {
						crossoverSink += len(PartitionAndAggregate[float64, core.Buffered64](keys, vals, newA, opt))
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
				})
			}
			buffered(fmt.Sprintf("bsz%d%s", bsz, mark(true)), bsz)
			b.Run(fmt.Sprintf("g2^%d/d%d/unbuffered%s", lg, depth, mark(false)), func(b *testing.B) {
				newA := func() core.Sum64 { return core.NewSum64(core.DefaultLevels) }
				for b.Loop() {
					crossoverSink += len(PartitionAndAggregate[float64, core.Sum64](keys, vals, newA, opt))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
			})
			if depth == planDepth && planBsz > 0 {
				for floor := 8; floor <= 64; floor *= 2 {
					buffered(fmt.Sprintf("floor-bsz%d", floor), floor)
				}
			}
		}
	}
}
