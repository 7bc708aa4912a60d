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
// It times GroupBySum, the operator repro.GroupBySum runs, at group
// counts from 2^10 to 2^22 (every power of two across the first
// crossovers, every other one elsewhere), at depth 0, 1 and 2, buffered
// (Eq. 4 at that depth, capped by rows/groups, floored at
// MinBufferSize) and unbuffered, and reports ns/row: 2^22 rows up to
// 2^20 groups, four rows per group above (depth 0 is left out there:
// its tables run to gigabytes and it is already three times behind at
// 2^20). The planner's pick for each group count
// is marked "*" in the sub-benchmark name; it should be the fastest of
// its group count, or within noise of it. Where the pick is buffered,
// "floor" runs repeat it with 8- to 64-value buffers: MinBufferSize is
// the smallest that does not lose to unbuffered at the same depth. At
// 2^16 groups the pick also runs on three key sets whose leading digit
// the pass cannot take as it finds it — a 0xFFFFFFFF outlier (all other
// rows behind one digit: the pass splits that partition again, one more
// scatter), keys 256 apart and ids based at 2^31 — next to the dense
// cell they are to be read against.
func BenchmarkGroupByCrossover(b *testing.B) {
	const maxLg = 22
	allVals := workload.Values64(2, 4<<maxLg, workload.MixedMag)
	for _, lg := range []int{10, 12, 13, 14, 15, 16, 18, 20, maxLg} {
		groups := 1 << lg
		rows := max(1<<22, 4*groups)
		keys := workload.Keys(1, rows, uint32(groups))
		vals := allVals[:rows]
		run := func(name string, keys []uint32, depth, bsz int) {
			opt := Options{Depth: depth, GroupHint: groups}
			b.Run(fmt.Sprintf("g2^%d/d%d/%s", lg, depth, name), func(b *testing.B) {
				for b.Loop() {
					crossoverSink += len(GroupBySum(keys, vals, core.DefaultLevels, bsz, opt,
						func(k uint32, sum float64) Entry[float64] { return Entry[float64]{Key: k, Agg: sum} }))
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rows), "ns/row")
			})
		}
		planDepth, planBsz := Plan(groups, rows, 8)
		for depth := 0; depth <= 2; depth++ {
			if depth == 0 && lg > 20 {
				continue
			}
			mark := func(buffered bool) string {
				if depth == planDepth && buffered == (planBsz > 0) {
					return "*"
				}
				return ""
			}
			bsz := max(min(BufferSizeAt(groups, depth, 8), rows/groups), MinBufferSize)
			run(fmt.Sprintf("bsz%d%s", bsz, mark(true)), keys, depth, bsz)
			run("unbuffered"+mark(false), keys, depth, 0)
			if depth == planDepth && planBsz > 0 {
				for floor := 8; floor <= 64; floor *= 2 {
					run(fmt.Sprintf("floor-bsz%d", floor), keys, depth, floor)
				}
			}
		}
		if lg != 16 {
			continue
		}
		for _, skew := range []struct {
			name string
			key  func(i int, k uint32) uint32
		}{
			{"outlier", func(i int, k uint32) uint32 {
				if i == rows/2 {
					return 0xFFFFFFFF
				}
				return k
			}},
			{"stride256", func(_ int, k uint32) uint32 { return k << 8 }},
			{"base2^31", func(_ int, k uint32) uint32 { return 1<<31 + k }},
		} {
			skewed := make([]uint32, rows)
			for i, k := range keys {
				skewed[i] = skew.key(i, k)
			}
			run("plan-"+skew.name, skewed, planDepth, planBsz)
		}
	}
}
