// Package agg implements the paper's aggregation operator,
// PARTITIONANDAGGREGATE (Algorithm 4) with and without summation
// buffers, and the tuning model for buffer size (Eq. 4) and
// partitioning depth (Section V-C). Aggregate is the operator: rows
// partitioned into ascending key ranges, a private table per worker,
// every group handed to the caller's finish in key order — the result
// is sorted by key by construction, and what leaves a table is what
// finish makes of the group (a ⟨key, sum⟩ pair for the facade), never a
// copy of the accumulator. Its partition loop, EachPart, is the only
// one in the repository: AggregateParts runs it with a table per worker
// (dist's tuple GROUP BY over its own tables), and serve runs it to sort
// its resident partitions and to fold their key runs. Depth 0's fan-out
// over rows is partition.EachChunk. PartitionAndAggregate is Aggregate for
// callers that do want the accumulators. Plain HASHAGGREGATION is
// hashagg.Aggregate; the sort-first baseline of Table IV is
// engine.SumSorted. Aggregate is generic over the payload, so every
// data type of the evaluation — built-in floats, DECIMAL(p),
// repro<ScalarT,L>, buffered repro — can run through identical code:
// the paper's drop-in demonstration (bench_test.go's Figs. 7–12) and the
// benchmark's plain comparator. DECIMAL(38) is a test-local payload
// (the root tests' d38, which bench_test.go's Fig. 7 runs).
// repro.GroupBySum runs GroupBySum, the same operator on a table built
// for the reproducible SUM.
package agg

import "repro/internal/core"

// Scalar accumulators for the baseline data types. Each implements
// Add(V) and MergeFrom(*A), the two operations the operators need.

// F64 is the built-in double accumulator (non-reproducible baseline).
type F64 float64

// Add folds one value in.
func (f *F64) Add(v float64) { *f += F64(v) }

// MergeFrom combines per-thread aggregates.
func (f *F64) MergeFrom(o *F64) { *f += *o }

// Value returns the aggregate.
func (f *F64) Value() float64 { return float64(*f) }

// Compile-time interface checks: every payload here and in core
// supports the operator contract. The DECIMAL(38) payload is d38, local
// to the root tests.
var (
	_ interface {
		Add(float64)
		MergeFrom(*F64)
	} = (*F64)(nil)
	_ interface {
		Add(float64)
		MergeFrom(*core.Sum64)
	} = (*core.Sum64)(nil)
	_ interface {
		Add(float64)
		MergeFrom(*core.Buffered64)
	} = (*core.Buffered64)(nil)
	_ interface {
		Add(float32)
		MergeFrom(*core.Sum32)
	} = (*core.Sum32)(nil)
	_ interface {
		Add(float32)
		MergeFrom(*core.Buffered32)
	} = (*core.Buffered32)(nil)
)
