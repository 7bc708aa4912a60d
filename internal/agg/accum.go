// Package agg implements the paper's aggregation operator,
// PARTITIONANDAGGREGATE (Algorithm 4) with and without summation
// buffers, and the tuning model for buffer size (Eq. 4) and
// partitioning depth (Section V-C). Aggregate is the operator: rows
// partitioned into ascending key ranges, a private table per worker,
// every group handed to the caller's finish in key order — the result
// is sorted by key by construction, and what leaves a table is what
// finish makes of the group (a ⟨key, sum⟩ pair for the facade), never a
// copy of the accumulator. Its partition loop, AggregateParts, is the
// only one in the repository: the tuple GROUP BY of dist and serve runs
// it over its own tables. PartitionAndAggregate is Aggregate for
// callers that do want the accumulators. Plain HASHAGGREGATION is
// hashagg.Aggregate; the sort-first baseline of Table IV is
// engine.SumSorted. Aggregate is generic over the payload, so every
// data type of the evaluation — built-in floats, DECIMAL(p),
// repro<ScalarT,L>, buffered repro — can run through identical code:
// the paper's drop-in demonstration (bench_test.go's Figs. 9–12) and the
// benchmark's plain comparator. repro.GroupBySum runs GroupBySum, the
// same operator on a table built for the reproducible SUM.
package agg

import (
	"repro/internal/core"
	"repro/internal/decimal"
)

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

// D38 is the DECIMAL(38) accumulator: a 128-bit integer fed by 64-bit
// values (the paper's __int128).
type D38 struct{ v decimal.Int128 }

// Add folds one value in.
func (d *D38) Add(v int64) { d.v = d.v.AddInt64(v) }

// MergeFrom combines per-thread aggregates.
func (d *D38) MergeFrom(o *D38) { d.v = d.v.Add(o.v) }

// Value returns the 128-bit aggregate.
func (d *D38) Value() decimal.Int128 { return d.v }

// Compile-time interface checks: every payload used by the experiments
// supports the operator contract.
var (
	_ interface {
		Add(float64)
		MergeFrom(*F64)
	} = (*F64)(nil)
	_ interface {
		Add(int64)
		MergeFrom(*D38)
	} = (*D38)(nil)
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
