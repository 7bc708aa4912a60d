// Package sqlagg implements the SQL aggregate-function library on top of
// reproducible summation. The paper's introduction (footnote 2) observes
// that with a reproducible floating-point SUM, every SQL aggregate that
// needs floating-point arithmetic can be made reproducible, because they
// are all computable from SUMs: AVG, VARIANCE, STDDEV, COVAR, CORR, and
// the regression aggregates. The paper's future work names "operators
// for machine learning and vector manipulation"; DotProduct covers the
// corresponding kernel.
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
// counter per row, not four accumulators. AggState is a one-spec plan
// for callers that fold one aggregate a value at a time. Covariance and
// the dot products are not GROUP BY catalog kinds.
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

// Covariance is the reproducible COVAR_POP/COVAR_SAMP/CORR aggregate
// over pairs (x, y), from SUM(x), SUM(y), SUM(x·y), SUM(x²), SUM(y²).
type Covariance struct {
	sumX, sumY, sumXY, sumXX, sumYY core.Sum64
	n                               int64
}

// NewCovariance returns an empty covariance accumulator.
func NewCovariance(levels int) Covariance {
	return Covariance{
		sumX:  core.NewSum64(levels),
		sumY:  core.NewSum64(levels),
		sumXY: core.NewSum64(levels),
		sumXX: core.NewSum64(levels),
		sumYY: core.NewSum64(levels),
	}
}

// Add folds one row in.
func (c *Covariance) Add(x, y float64) {
	c.sumX.Add(x)
	c.sumY.Add(y)
	c.sumXY.Add(x * y)
	c.sumXX.Add(x * x)
	c.sumYY.Add(y * y)
	c.n++
}

// MergeFrom combines partial aggregates.
func (c *Covariance) MergeFrom(o *Covariance) {
	c.sumX.MergeFrom(&o.sumX)
	c.sumY.MergeFrom(&o.sumY)
	c.sumXY.MergeFrom(&o.sumXY)
	c.sumXX.MergeFrom(&o.sumXX)
	c.sumYY.MergeFrom(&o.sumYY)
	c.n += o.n
}

// Count returns the row count.
func (c *Covariance) Count() int64 { return c.n }

// CovarPop finalizes COVAR_POP = (Σxy − ΣxΣy/n) / n.
func (c *Covariance) CovarPop() float64 {
	if c.n == 0 {
		return math.NaN()
	}
	return c.cov() / float64(c.n)
}

// CovarSamp finalizes COVAR_SAMP = (Σxy − ΣxΣy/n) / (n−1).
func (c *Covariance) CovarSamp() float64 {
	if c.n < 2 {
		return math.NaN()
	}
	return c.cov() / float64(c.n-1)
}

func (c *Covariance) cov() float64 {
	return c.sumXY.Value() - c.sumX.Value()*c.sumY.Value()/float64(c.n)
}

// Corr finalizes the Pearson correlation CORR(x, y); NaN when either
// variance is zero.
func (c *Covariance) Corr() float64 {
	if c.n == 0 {
		return math.NaN()
	}
	nf := float64(c.n)
	sx := c.sumXX.Value() - c.sumX.Value()*c.sumX.Value()/nf
	sy := c.sumYY.Value() - c.sumY.Value()*c.sumY.Value()/nf
	if sx <= 0 || sy <= 0 {
		return math.NaN()
	}
	return c.cov() / math.Sqrt(sx*sy)
}

// RegrSlope finalizes REGR_SLOPE(y over x) = covar_pop(x,y)/var_pop(x).
func (c *Covariance) RegrSlope() float64 {
	if c.n == 0 {
		return math.NaN()
	}
	nf := float64(c.n)
	sx := c.sumXX.Value() - c.sumX.Value()*c.sumX.Value()/nf
	if sx == 0 {
		return math.NaN()
	}
	return c.cov() / sx
}

// RegrIntercept finalizes REGR_INTERCEPT(y over x).
func (c *Covariance) RegrIntercept() float64 {
	slope := c.RegrSlope()
	if math.IsNaN(slope) {
		return math.NaN()
	}
	nf := float64(c.n)
	return c.sumY.Value()/nf - slope*c.sumX.Value()/nf
}

// DotProduct returns the reproducible dot product Σ x_i·y_i — the basic
// kernel of the "machine learning and vector manipulation" operators the
// paper's future work names. Each product rounds once deterministically;
// the sum is reproducible, so the result is a function of the value
// multiset (and is bit-identical for chunked/parallel execution via
// DotProductMerge).
func DotProduct(x, y []float64, levels int) float64 {
	if len(x) != len(y) {
		panic("sqlagg: dot product of different-length vectors")
	}
	s := core.NewSum64(levels)
	for i := range x {
		s.Add(x[i] * y[i])
	}
	return s.Value()
}

// DotProductExact returns the reproducible dot product with error-free
// products: each product x·y is split into its rounded head p = fl(x·y)
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
