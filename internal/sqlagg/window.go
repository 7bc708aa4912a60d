package sqlagg

import "repro/internal/core"

// Window aggregates, per the paper's footnote 4: "window clauses
// without sliding frame can be executed as aggregations with GroupBy"
// — made reproducible here with repro accumulators — and "window
// clauses with ORDER BY clause have a definite order and are therefore
// intrinsically reproducible".

// WindowTotals computes SUM(val) OVER (PARTITION BY key): every row
// receives its partition's total. The totals are reproducible sums, so
// the output is bit-identical for any permutation of the rows (each row
// keeps its own key, of course).
func WindowTotals(keys []uint32, vals []float64, levels int) []float64 {
	if len(keys) != len(vals) {
		panic("sqlagg: window keys and values must have equal length")
	}
	accs := make(map[uint32]*core.Sum64)
	for i, k := range keys {
		a := accs[k]
		if a == nil {
			s := core.NewSum64(levels)
			a = &s
			accs[k] = a
		}
		a.Add(vals[i])
	}
	out := make([]float64, len(keys))
	totals := make(map[uint32]float64, len(accs))
	for k, a := range accs {
		totals[k] = a.Value()
	}
	for i, k := range keys {
		out[i] = totals[k]
	}
	return out
}
