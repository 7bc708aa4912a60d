// Benchmarks: one testing.B benchmark (family) per table and figure of
// the paper's evaluation — the per-figure reproducer. Each family runs
// one representative point per series; the at-scale GROUP BY crossover
// curve is BenchmarkGroupByCrossover (internal/agg) plus the groupby_*
// workloads of benchmark/, whose README maps each layer to the paper
// figure it reproduces. Fig. 7's DECIMAL(38) payload is d38
// (groupby_test.go), the paper's __int128.
//
//	go test -run '^$' -bench . -benchmem .
//
// CI runs every family for one iteration (-benchtime 1x), so a family
// that panics fails the build; that run makes no timing claim.
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/agg"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/exact"
	"repro/internal/hashagg"
	"repro/internal/pagerank"
	"repro/internal/partition"
	"repro/internal/rsum"
	"repro/internal/sqlagg"
	"repro/internal/tpch"
	"repro/internal/workload"
)

const benchN = 1 << 18

var benchSink float64

type f64acc float64

func (f *f64acc) Add(v float64)       { *f += f64acc(v) }
func (f *f64acc) MergeFrom(o *f64acc) { *f += *o }

type f32acc float32

func (f *f32acc) Add(v float32)       { *f += f32acc(v) }
func (f *f32acc) MergeFrom(o *f32acc) { *f += *o }

type u32acc uint32

func (u *u32acc) Add(v uint32) { *u += u32acc(v) }

// eagerAcc is the drop-in type as the paper measures it: Algorithm 2
// with carries propagated after every value.
type eagerAcc struct{ st rsum.State64 }

func (e *eagerAcc) Add(v float64) { e.st.AddEager(v) }

// BenchmarkFig4 — Figure 4: plain HASHAGGREGATION with 16 groups per
// data type; the repro types cost a growing multiple of the built-ins.
// repro_double_2_eager is the paper's drop-in cost (per-value carry
// propagation); the repro_* cells spend the NB carry budget, as
// core.Sum64 does.
func BenchmarkFig4(b *testing.B) {
	keys := workload.Keys(1, benchN, 16)
	f64 := workload.Values64(2, benchN, workload.Uniform12)
	f32 := workload.Values32(2, benchN, workload.Uniform12)
	u32 := make([]uint32, benchN)
	for i := range u32 {
		u32[i] = uint32(f64[i] * 100)
	}
	b.Run("uint32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := hashagg.New[u32acc](16, hashagg.Identity, func() u32acc { return 0 })
			hashagg.Aggregate[uint32, u32acc](t, keys, u32)
		}
	})
	b.Run("double", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := hashagg.New[f64acc](16, hashagg.Identity, func() f64acc { return 0 })
			hashagg.Aggregate[float64, f64acc](t, keys, f64)
		}
	})
	for _, l := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("repro_double_%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				t := hashagg.New[core.Sum64](16, hashagg.Identity,
					func() core.Sum64 { return core.NewSum64(l) })
				hashagg.Aggregate[float64, core.Sum64](t, keys, f64)
			}
		})
	}
	b.Run("repro_double_2_eager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := hashagg.New[eagerAcc](16, hashagg.Identity,
				func() eagerAcc { return eagerAcc{rsum.NewState64(2)} })
			hashagg.Aggregate[float64, eagerAcc](t, keys, f64)
		}
	})
	b.Run("repro_float_2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := hashagg.New[core.Sum32](16, hashagg.Identity,
				func() core.Sum32 { return core.NewSum32(2) })
			hashagg.Aggregate[float32, core.Sum32](t, keys, f32)
		}
	})
}

// BenchmarkTab2 — Table II companion: throughput of the summation
// routines whose accuracy the table reports (accuracy itself is checked
// in the test suite: internal/rsum and internal/sqlagg differential
// tests against internal/exact).
func BenchmarkTab2(b *testing.B) {
	xs := workload.Values64(3, benchN, workload.Exp1)
	b.Run("conventional", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += exact.Naive64(xs)
		}
	})
	for _, l := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("rsum_L%d", l), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := rsum.NewState64(l)
				s.AddSlice(xs)
				benchSink += s.Value()
			}
		})
	}
}

// BenchmarkFig6 — Figure 6: chunked summation, scalar vs vectorized
// kernel vs conventional, for small and large chunk sizes. The start-up
// overhead the figure shows for small chunks was, in the paper, the V×
// larger per-call state; the lanes here start at zero and fold into the
// state with one addition per level, so what is left per call is the
// tile scan, two calls through the kernel's func values and the lane
// fold — tens of nanoseconds, visible at c8, gone by c512
// (BenchmarkKernel in internal/rsum prices it per implementation).
func BenchmarkFig6(b *testing.B) {
	xs := workload.Values64(4, benchN, workload.Uniform12)
	for _, c := range []int{8, 64, 512} {
		b.Run(fmt.Sprintf("scalar_c%d", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := rsum.NewState64(2)
				for j := 0; j < len(xs); j += c {
					s.AddSlice(xs[j : j+c])
				}
				benchSink += s.Value()
			}
		})
		b.Run(fmt.Sprintf("simd_c%d", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := rsum.NewState64(2)
				for j := 0; j < len(xs); j += c {
					s.AddSliceVec(xs[j : j+c])
				}
				benchSink += s.Value()
			}
		})
	}
	b.Run("conv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += exact.Naive64(xs)
		}
	})
	b.Run("simd_cinf", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := rsum.NewState64(2)
			s.AddSliceVec(xs)
			benchSink += s.Value()
		}
	})
}

func benchPAA[V partition.Scalar, A any, PA interface {
	*A
	hashagg.Adder[V]
	hashagg.Merger[A]
}](b *testing.B, keys []uint32, vals []V, newA func() A, depth, groups int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		entries := agg.PartitionAndAggregate[V, A, PA](keys, vals, newA,
			agg.Options{Depth: depth, GroupHint: groups})
		benchSink += float64(len(entries))
	}
}

// BenchmarkFig7 — Figure 7: unbuffered PARTITIONANDAGGREGATE per data
// type at small/medium/large group counts; decimal38 sums the values
// scaled to fixed-point int64s in d38.
func BenchmarkFig7(b *testing.B) {
	for _, g := range []int{16, 4096, 1 << 16} {
		keys := workload.Keys(5, benchN, uint32(g))
		f64 := workload.Values64(6, benchN, workload.Uniform12)
		i64 := make([]int64, benchN)
		for i := range i64 {
			i64[i] = int64(f64[i] * 1e4)
		}
		depth := agg.ThresholdsReproUnbuffered.Depth(g)
		dBuiltin := agg.ThresholdsBuiltin.Depth(g)
		b.Run(fmt.Sprintf("float_g%d", g), func(b *testing.B) {
			benchPAA[float64, f64acc](b, keys, f64, func() f64acc { return 0 }, dBuiltin, g)
		})
		b.Run(fmt.Sprintf("decimal38_g%d", g), func(b *testing.B) {
			benchPAA[int64, d38](b, keys, i64, func() d38 { return d38{} }, dBuiltin, g)
		})
		b.Run(fmt.Sprintf("repro_double2_g%d", g), func(b *testing.B) {
			benchPAA[float64, core.Sum64](b, keys, f64,
				func() core.Sum64 { return core.NewSum64(2) }, depth, g)
		})
	}
}

// BenchmarkFig8 — Figure 8: buffer-size impact at 1024 groups, d = 0.
func BenchmarkFig8(b *testing.B) {
	const g = 1024
	keys := workload.Keys(7, benchN, g)
	f64 := workload.Values64(8, benchN, workload.Uniform12)
	for _, bsz := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("bsz%d", bsz), func(b *testing.B) {
			benchPAA[float64, core.Buffered64](b, keys, f64,
				func() core.Buffered64 { return core.NewBuffered64(2, bsz) }, 0, g)
		})
	}
}

// BenchmarkFig9 — Figure 9: partitioning depth 0/1/2 at 2^12 groups.
func BenchmarkFig9(b *testing.B) {
	const g = 1 << 12
	keys := workload.Keys(9, benchN, g)
	f32 := workload.Values32(10, benchN, workload.Uniform12)
	for depth := 0; depth <= 2; depth++ {
		bsz := agg.BufferSizeAt(g, depth, 4)
		b.Run(fmt.Sprintf("d%d", depth), func(b *testing.B) {
			benchPAA[float32, core.Buffered32](b, keys, f32,
				func() core.Buffered32 { return core.NewBuffered32(2, bsz) }, depth, g)
		})
	}
}

// BenchmarkFig10 — Figure 10: buffered vs unbuffered repro vs float at a
// medium group count (the full sweep over group counts is
// BenchmarkGroupByCrossover in internal/agg).
func BenchmarkFig10(b *testing.B) {
	const g = 4096
	keys := workload.Keys(11, benchN, g)
	f64 := workload.Values64(12, benchN, workload.Uniform12)
	depth := agg.ThresholdsReproBuffered.Depth(g)
	bsz := agg.BufferSizeAt(g, depth, 8)
	b.Run("float", func(b *testing.B) {
		benchPAA[float64, f64acc](b, keys, f64, func() f64acc { return 0 }, 0, g)
	})
	b.Run("repro_double2_buffered", func(b *testing.B) {
		benchPAA[float64, core.Buffered64](b, keys, f64,
			func() core.Buffered64 { return core.NewBuffered64(2, bsz) }, depth, g)
	})
	b.Run("repro_double2_unbuffered", func(b *testing.B) {
		benchPAA[float64, core.Sum64](b, keys, f64,
			func() core.Sum64 { return core.NewSum64(2) },
			agg.ThresholdsReproUnbuffered.Depth(g), g)
	})
}

// BenchmarkTab3 — Table III companion: the buffered slowdown at one
// representative point per scalar type and level count.
func BenchmarkTab3(b *testing.B) {
	const g = 1024
	keys := workload.Keys(13, benchN, g)
	f64 := workload.Values64(14, benchN, workload.Uniform12)
	f32 := workload.Values32(14, benchN, workload.Uniform12)
	depth := agg.ThresholdsReproBuffered.Depth(g)
	for _, l := range []int{1, 4} {
		b.Run(fmt.Sprintf("buffered_float_L%d", l), func(b *testing.B) {
			benchPAA[float32, core.Buffered32](b, keys, f32,
				func() core.Buffered32 { return core.NewBuffered32(l, agg.BufferSizeAt(g, depth, 4)) }, depth, g)
		})
		b.Run(fmt.Sprintf("buffered_double_L%d", l), func(b *testing.B) {
			benchPAA[float64, core.Buffered64](b, keys, f64,
				func() core.Buffered64 { return core.NewBuffered64(l, agg.BufferSizeAt(g, depth, 8)) }, depth, g)
		})
	}
}

// BenchmarkTab4 — Table IV: TPC-H Q1 per SUM kernel.
func BenchmarkTab4(b *testing.B) {
	tbl := tpch.GenLineitem(0.005, 15) // ~30k rows
	for _, k := range []engine.GroupByConfig{
		{Kind: engine.SumPlain},
		{Kind: engine.SumRepro, Levels: 4},
		{Kind: engine.SumReproBuffered, Levels: 4},
		{Kind: engine.SumSorted},
	} {
		b.Run(k.Kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				rows, _, err := tpch.RunQ1(tbl, k)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += rows[0].SumQty
			}
		})
	}
}

// BenchmarkFig11 — Figure 11: distinct-heavy data (n/ngroups < 2^6).
func BenchmarkFig11(b *testing.B) {
	for _, ratio := range []int{256, 16, 2} {
		g := benchN / ratio
		keys := workload.Keys(17, benchN, uint32(g))
		f32 := workload.Values32(18, benchN, workload.Uniform12)
		depth := agg.ThresholdsReproBuffered.Depth(g)
		b.Run(fmt.Sprintf("n_per_group_%d", ratio), func(b *testing.B) {
			benchPAA[float32, core.Buffered32](b, keys, f32,
				func() core.Buffered32 { return core.NewBuffered32(2, 256) }, depth, g)
		})
	}
}

// BenchmarkFig12 — Figure 12: buffer size with one partitioning pass.
func BenchmarkFig12(b *testing.B) {
	const g = 1 << 16
	keys := workload.Keys(19, benchN, g)
	f32 := workload.Values32(20, benchN, workload.Uniform12)
	for _, bsz := range []int{16, 128, 1024} {
		b.Run(fmt.Sprintf("bsz%d", bsz), func(b *testing.B) {
			benchPAA[float32, core.Buffered32](b, keys, f32,
				func() core.Buffered32 { return core.NewBuffered32(2, bsz) }, 1, g)
		})
	}
}

// BenchmarkPageRank — the introduction's motivation experiment: cost of
// reproducible vs float per-page summation.
func BenchmarkPageRank(b *testing.B) {
	g := pagerank.NewScaleFree(20000, 4, 21)
	b.Run("float64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := pagerank.Run(g, pagerank.Config{Iterations: 5})
			benchSink += r[0]
		}
	})
	b.Run("reproducible", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := pagerank.Run(g, pagerank.Config{Iterations: 5, Reproducible: true})
			benchSink += r[0]
		}
	})
}

// BenchmarkAblations — design-choice ablations: identity vs
// multiplicative hashing, carry propagation per value (add_eager), per
// NB values (add) and per tile with the level check hoisted
// (add_tiled), and
// compensated (Neumaier) summation as the non-reproducible accuracy
// reference. The sort-first baseline of Table IV is engine.SumSorted in
// BenchmarkTab4.
func BenchmarkAblations(b *testing.B) {
	keys := workload.Keys(23, benchN, 4096)
	f64 := workload.Values64(24, benchN, workload.Uniform12)
	b.Run("hash_identity", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := hashagg.New[f64acc](4096, hashagg.Identity, func() f64acc { return 0 })
			hashagg.Aggregate[float64, f64acc](t, keys, f64)
		}
	})
	b.Run("hash_multiplicative", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			t := hashagg.New[f64acc](4096, hashagg.Multiplicative, func() f64acc { return 0 })
			hashagg.Aggregate[float64, f64acc](t, keys, f64)
		}
	})
	b.Run("add_eager", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := rsum.NewState64(2)
			for _, v := range f64 {
				s.AddEager(v)
			}
			benchSink += s.Value()
		}
	})
	b.Run("add", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := rsum.NewState64(2)
			for _, v := range f64 {
				s.Add(v)
			}
			benchSink += s.Value()
		}
	})
	b.Run("add_tiled", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := rsum.NewState64(2)
			s.AddSlice(f64)
			benchSink += s.Value()
		}
	})
	b.Run("neumaier", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += exact.Neumaier64(f64)
		}
	})
}

// BenchmarkOperatorVariants — the operator strategies of the related
// work (Section VII): private tables + partitioning (Algorithm 4),
// SHAREDAGGREGATION (striped shared table), adaptive switching, the two
// radix-partitioning scatters on the low byte (Do, on the staged driver,
// and DoBuffered's write-combining with ordinary stores), and
// Recursive's pass as GROUP BY runs it.
func BenchmarkOperatorVariants(b *testing.B) {
	const g = 4096
	keys := workload.Keys(25, benchN, g)
	f64 := workload.Values64(26, benchN, workload.Uniform12)
	newSum := func() core.Sum64 { return core.NewSum64(2) }
	b.Run("partition_and_aggregate", func(b *testing.B) {
		benchPAA[float64, core.Sum64](b, keys, f64, newSum, 0, g)
	})
	b.Run("shared_aggregation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			entries := agg.SharedAggregate[float64, core.Sum64](keys, f64, newSum,
				agg.Options{GroupHint: g})
			benchSink += float64(len(entries))
		}
	})
	b.Run("adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			entries := agg.AdaptiveAggregate[float64, core.Sum64](keys, f64, newSum,
				agg.AdaptiveOptions{})
			benchSink += float64(len(entries))
		}
	})
	b.Run("radix_scatter_plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := partition.Do(keys, f64, 0, 256, 0)
			benchSink += float64(out.Off[128])
		}
	})
	b.Run("radix_scatter_swwcb", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := partition.DoBuffered(keys, f64, 0, 256, 0)
			benchSink += float64(out.Off[128])
		}
	})
	// The pass that ships, at groupby_mid's shape: 2^22 keys of 2^16
	// groups and one float64 column, 48 MiB of output, where the two
	// cells above write 3 MiB.
	const midRows = 1 << 22
	midKeys := workload.Keys(27, midRows, 1<<16)
	midVals := workload.Values64(28, midRows, workload.Uniform12)
	b.Run("radix_scatter_recursive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			parts := partition.Recursive(midKeys, [][]float64{midVals}, 1, agg.DefaultFanout, 0)
			benchSink += float64(len(parts))
		}
	})
}

// BenchmarkSQLAggregates — the future-work extension: reproducible
// statistical aggregates built from SUM.
func BenchmarkSQLAggregates(b *testing.B) {
	xs := workload.Values64(28, benchN, workload.Exp1)
	ys := workload.Values64(29, benchN, workload.Exp1)
	b.Run("variance", func(b *testing.B) {
		p, err := sqlagg.NewTuplePlan([]sqlagg.AggSpec{{Kind: sqlagg.AggVarPop, Levels: 2}})
		if err != nil {
			b.Fatal(err)
		}
		cols, out := [][]float64{xs}, make([]float64, 1)
		for i := 0; i < b.N; i++ {
			t := p.NewTuple(0)
			for j := range xs {
				p.AddRow(&t, cols, j)
			}
			benchSink += p.Finalize(out[:0], &t)[0]
		}
	})
	b.Run("dot_product", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchSink += sqlagg.DotProductExact(xs, ys, 2)
		}
	})
}
