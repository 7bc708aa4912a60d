// Package agg implements the paper's aggregation operator,
// PARTITIONANDAGGREGATE (Algorithm 4) with and without summation
// buffers, and the tuning model for buffer size (Eq. 4) and
// partitioning depth (Section V-C). Aggregate is the operator: rows
// partitioned into ascending key ranges, a private table per worker,
// every group handed to the caller's finish in key order — the result
// is sorted by key by construction, and what leaves a table is what
// finish makes of the group (a ⟨key, sum⟩ pair for the facade), never a
// copy of the accumulator. PartitionAndAggregate is Aggregate for
// callers that do want the accumulators. Plain HASHAGGREGATION is
// hashagg.Aggregate; the sort-first baseline of Table IV is
// engine.SumSorted. The operators are generic over the aggregate payload,
// so every data type of the evaluation — built-in floats, DECIMAL(p),
// repro<ScalarT,L>, and buffered repro — runs through identical code.
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

// U32 is the uint32 accumulator (the uint32_t reference of Figure 4).
// Addition wraps, which keeps it associative and reproducible.
type U32 uint32

// Add folds one value in.
func (u *U32) Add(v uint32) { *u += U32(v) }

// MergeFrom combines per-thread aggregates.
func (u *U32) MergeFrom(o *U32) { *u += *o }

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
		Add(uint32)
		MergeFrom(*U32)
	} = (*U32)(nil)
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
