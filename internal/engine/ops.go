package engine

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/agg"
	"repro/internal/core"
)

// Vectorized operator primitives. All operators work on selection
// vectors (row-id lists), the classic vectorized execution model.

// SelectInt32LE builds a selection vector of the rows where col ≤ max.
func SelectInt32LE(col Int32Column, max int32) []int32 {
	sel := make([]int32, 0, len(col))
	for i, v := range col {
		if v <= max {
			sel = append(sel, int32(i))
		}
	}
	return sel
}

// GatherFloat64 materializes col[sel] into a new dense vector.
func GatherFloat64(col Float64Column, sel []int32) []float64 {
	out := make([]float64, len(sel))
	for i, r := range sel {
		out[i] = col[r]
	}
	return out
}

// GatherByte materializes col[sel].
func GatherByte(col ByteColumn, sel []int32) []byte {
	out := make([]byte, len(sel))
	for i, r := range sel {
		out[i] = col[r]
	}
	return out
}

// MulScalarAdd computes dst[i] = a[i] * (s + b[i]) — the shape of
// Q1's disc_price = extendedprice · (1 − discount) with s = 1, b = −disc,
// expressed as one fused vectorized projection.
func MulScalarAdd(dst, a, b []float64, s float64) {
	if len(dst) != len(a) || len(a) != len(b) {
		panic("engine: projection length mismatch")
	}
	for i := range dst {
		dst[i] = a[i] * (s + b[i])
	}
}

// Neg computes dst[i] = −a[i].
func Neg(dst, a []float64) {
	for i := range dst {
		dst[i] = -a[i]
	}
}

// SumKind selects the SUM kernel of the group-by operator — the knob
// the paper turns inside MonetDB.
type SumKind int

const (
	// SumPlain is the built-in double sum (non-reproducible baseline).
	SumPlain SumKind = iota
	// SumRepro aggregates into repro<double,L> accumulators per group
	// (Section IV: drop-in, no buffering).
	SumRepro
	// SumReproBuffered uses summation buffers per group (Section V).
	SumReproBuffered
	// SumSorted sorts (group, value-bits) first and then sums doubles —
	// the "deterministic order" baseline of Table IV.
	SumSorted
)

// String names the kernel for reports.
func (k SumKind) String() string {
	switch k {
	case SumPlain:
		return "double"
	case SumRepro:
		return "repro"
	case SumReproBuffered:
		return "repro+buffer"
	case SumSorted:
		return "sorted double"
	default:
		return "?"
	}
}

// GroupByConfig configures the group-by operator.
type GroupByConfig struct {
	// Kind selects the SUM kernel.
	Kind SumKind
	// Levels is the repro level count L (default 4, matching the
	// repro<double,4> configuration of Table IV).
	Levels int
	// BufferSize is bsz for SumReproBuffered (default from Eq. 4).
	BufferSize int
}

func (c GroupByConfig) withDefaults(ngroups int) GroupByConfig {
	if c.Levels == 0 {
		c.Levels = 4
	}
	if c.BufferSize == 0 {
		// Eq. 4 with F = 1 and float64 payloads.
		c.BufferSize = agg.BufferSize(ngroups, 1, 8)
	}
	return c
}

// GroupedSum computes, for each group g in [0, ngroups), the sum of
// vals[i] with groups[i] == g, using the configured kernel. MonetDB's
// aggregation operator for dense group ids works the same way: direct
// indexing into an aggregate array, no hash table needed after group-id
// construction. The profiler, when non-nil, is charged under
// "aggregation".
func GroupedSum(groups []uint32, ngroups int, vals []float64, cfg GroupByConfig, prof *Profiler) ([]float64, error) {
	if len(groups) != len(vals) {
		return nil, fmt.Errorf("engine: GroupedSum length mismatch (%d vs %d)", len(groups), len(vals))
	}
	if ngroups <= 0 {
		return nil, fmt.Errorf("engine: GroupedSum needs ngroups > 0")
	}
	cfg = cfg.withDefaults(ngroups)
	out := make([]float64, ngroups)
	run := func(fn func()) {
		if prof != nil {
			prof.Measure("aggregation", fn)
		} else {
			fn()
		}
	}
	switch cfg.Kind {
	case SumPlain:
		run(func() {
			for i, g := range groups {
				out[g] += vals[i]
			}
		})
	case SumRepro:
		run(func() {
			accs := make([]core.Sum64, ngroups)
			for g := range accs {
				accs[g] = core.NewSum64(cfg.Levels)
			}
			for i, g := range groups {
				accs[g].Add(vals[i])
			}
			for g := range accs {
				out[g] = accs[g].Value()
			}
		})
	case SumReproBuffered:
		run(func() {
			accs := make([]core.Buffered64, ngroups)
			for g := range accs {
				accs[g] = core.NewBuffered64(cfg.Levels, cfg.BufferSize)
			}
			for i, g := range groups {
				accs[g].Add(vals[i])
			}
			for g := range accs {
				out[g] = accs[g].Value()
			}
		})
	case SumSorted:
		// Sort row ids by (group, value bits) — deterministic order —
		// then sum sequentially. The sort is charged to "sort" (it is
		// not aggregation work; Table IV reports it under "Other").
		ids := make([]int32, len(groups))
		for i := range ids {
			ids[i] = int32(i)
		}
		sortf := func() {
			sort.Slice(ids, func(a, b int) bool {
				ia, ib := ids[a], ids[b]
				if groups[ia] != groups[ib] {
					return groups[ia] < groups[ib]
				}
				return math.Float64bits(vals[ia]) < math.Float64bits(vals[ib])
			})
		}
		if prof != nil {
			prof.Measure("sort", sortf)
		} else {
			sortf()
		}
		run(func() {
			for _, id := range ids {
				out[groups[id]] += vals[id]
			}
		})
	default:
		return nil, fmt.Errorf("engine: unknown sum kind %d", cfg.Kind)
	}
	return out, nil
}

// GroupedCount counts rows per group.
func GroupedCount(groups []uint32, ngroups int, prof *Profiler) []int64 {
	out := make([]int64, ngroups)
	fn := func() {
		for _, g := range groups {
			out[g]++
		}
	}
	if prof != nil {
		prof.Measure("aggregation", fn)
	} else {
		fn()
	}
	return out
}

// GroupedAvg divides per-group sums by counts; NaN for empty groups
// (SQL NULL semantics).
func GroupedAvg(sums []float64, counts []int64) []float64 {
	if len(sums) != len(counts) {
		panic("engine: GroupedAvg length mismatch")
	}
	out := make([]float64, len(sums))
	for g := range out {
		if counts[g] == 0 {
			out[g] = math.NaN()
		} else {
			out[g] = sums[g] / float64(counts[g])
		}
	}
	return out
}
