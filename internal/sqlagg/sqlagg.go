// Package sqlagg implements the SQL aggregate-function library on top of
// reproducible summation. The paper's introduction (footnote 2) observes
// that with a reproducible floating-point SUM, every SQL aggregate that
// needs floating-point arithmetic can be made reproducible, because they
// are all computable from SUMs: AVG, VARIANCE, STDDEV, COVAR, CORR, and
// the regression aggregates. The paper's future work names "operators
// for machine learning and vector manipulation"; DotProductExact covers
// the corresponding kernel.
//
// Each aggregate keeps one or more reproducible accumulators plus an
// exact row counter, so any permutation of the input and any merge tree
// of partial aggregates yields bit-identical results. Finalization uses
// a fixed sequence of floating-point operations, preserving bit
// reproducibility end to end.
//
// Population/sample variants follow the SQL standard: VAR_POP divides
// by n, VAR_SAMP by n−1 (NULL — here NaN — for n < 2).
//
// There is one accumulator. The catalog (aggstate.go) declares every
// aggregate kind once, as a table row: its SQL name, the physical
// components it reads — one reproducible sum per (column, x or x², level
// count), one shared row counter, one extremum per (column, MIN|MAX) —
// and its finaliser over them. TuplePlan (tuple.go) plans a query's
// specs onto their distinct components, the init / step / finalize
// contract of a SQL aggregate function plus merge and encode:
//
//	init      TuplePlan.NewTuple   empty components, optional §V-A buffers
//	step      TuplePlan.AddRow     one value per summed column per row
//	merge     TuplePlan.MergeBinary
//	encode    TuplePlan.AppendBinary
//	finalize  TuplePlan.Finalize   one float64 per spec, in spec order
//
// so SUM(x), AVG(x), VAR_POP(x) and COUNT(*) cost two sums and a
// counter per row, not four accumulators. An aggregation table keeps
// its groups' components in TupleColumns instead of one Tuple each,
// steps a batch of rows one component at a time, and hands a flushed
// group out as a Tuple view for merge, encode and finalize. AggState is a one-spec plan
// for callers that fold one aggregate a value at a time. The dot
// product is not a GROUP BY catalog kind.
package sqlagg

import (
	"math"

	"repro/internal/core"
	"repro/internal/rsum"
)

// avgOf is AVG's finaliser over its physical components: Σx / n.
func avgOf(sum *rsum.State64, n int64) float64 {
	if n == 0 {
		return math.NaN()
	}
	return sum.Value() / float64(n)
}

// varianceOf is the variance finaliser over its physical components:
// (Σx² − (Σx)²/n) / (n − ddof), NaN (SQL NULL) when n ≤ ddof, clamped
// at 0 against tiny negative results of the final roundings. Σx² sums
// x·x, one deterministic rounding per row, so the result is a function
// of the input multiset.
func varianceOf(sum, sumSq *rsum.State64, n, ddof int64) float64 {
	if n <= ddof {
		return math.NaN()
	}
	s := sum.Value()
	sq := sumSq.Value()
	r := (sq - s*s/float64(n)) / float64(n-ddof)
	if r < 0 {
		return 0
	}
	return r
}

// DotProductExact returns the reproducible dot product Σ x_i·y_i — the
// basic kernel of the "machine learning and vector manipulation"
// operators the paper's future work names — with error-free products:
// each product x·y is split into its rounded head p = fl(x·y)
// and exact tail e = fma(x, y, −p) (the TwoProduct transformation of
// Ogita, Rump & Oishi), and BOTH parts are folded into the reproducible
// sum. The result is therefore as accurate as summing the exact
// products — the quality target of reproducible BLAS-1 kernels — and
// bit-reproducible for any order.
func DotProductExact(x, y []float64, levels int) float64 {
	if len(x) != len(y) {
		panic("sqlagg: dot product of different-length vectors")
	}
	s := core.NewSum64(levels)
	for i := range x {
		p := x[i] * y[i]
		e := math.FMA(x[i], y[i], -p) // exact: x·y − fl(x·y)
		s.Add(p)
		s.Add(e)
	}
	return s.Value()
}
