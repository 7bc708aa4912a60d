package main

import (
	"runtime"
	"time"

	"repro/internal/agg"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/hashagg"
	"repro/internal/workload"
)

// Shared measurement helpers: each runner executes one aggregation over
// a prepared workload and returns the wall time. All runners sink the
// result into a package-level variable so the compiler cannot eliminate
// the work.

var sinkF64 float64
var sinkInt int

func sinkEntries[A any](entries []agg.Entry[A]) {
	sinkInt += len(entries)
}

// datasets bundles the value columns shared by all data types for a
// given key column, so every type aggregates the same logical data
// (float32/int values are derived from the float64 ones).
type datasets struct {
	keys []uint32
	f64  []float64
	f32  []float32
	i32  []int32
	i64  []int64
}

func makeDatasets(seed uint64, n int, ngroups uint32) datasets {
	d := datasets{
		keys: workload.Keys(seed, n, ngroups),
		f64:  workload.Values64(seed+1, n, workload.Uniform12),
	}
	d.f32 = make([]float32, n)
	d.i32 = make([]int32, n)
	d.i64 = make([]int64, n)
	for i, v := range d.f64 {
		d.f32[i] = float32(v)
		d.i64[i] = int64(v * 1e4) // fixed-point with 4 fractional digits
		d.i32[i] = int32(d.i64[i])
	}
	return d
}

func workers() int { return runtime.GOMAXPROCS(0) }

func options(depth, ngroups int) agg.Options {
	return agg.Options{Depth: depth, GroupHint: ngroups, Workers: workers()}
}

// Per-type runners for PARTITIONANDAGGREGATE.

func runF64(d datasets, depth, ngroups int) time.Duration {
	return bench.Measure(func() {
		sinkEntries(agg.PartitionAndAggregate[float64, agg.F64](
			d.keys, d.f64, func() agg.F64 { return 0 }, options(depth, ngroups)))
	})
}

func runF32(d datasets, depth, ngroups int) time.Duration {
	return bench.Measure(func() {
		sinkEntries(agg.PartitionAndAggregate[float32, agg.F32](
			d.keys, d.f32, func() agg.F32 { return 0 }, options(depth, ngroups)))
	})
}

func runD9(d datasets, depth, ngroups int) time.Duration {
	return bench.Measure(func() {
		sinkEntries(agg.PartitionAndAggregate[int32, agg.D9](
			d.keys, d.i32, func() agg.D9 { return 0 }, options(depth, ngroups)))
	})
}

func runD18(d datasets, depth, ngroups int) time.Duration {
	return bench.Measure(func() {
		sinkEntries(agg.PartitionAndAggregate[int64, agg.D18](
			d.keys, d.i64, func() agg.D18 { return 0 }, options(depth, ngroups)))
	})
}

func runD38(d datasets, depth, ngroups int) time.Duration {
	return bench.Measure(func() {
		sinkEntries(agg.PartitionAndAggregate[int64, agg.D38](
			d.keys, d.i64, func() agg.D38 { return agg.D38{} }, options(depth, ngroups)))
	})
}

func runSum64(d datasets, levels, depth, ngroups int) time.Duration {
	return bench.Measure(func() {
		sinkEntries(agg.PartitionAndAggregate[float64, core.Sum64](
			d.keys, d.f64, func() core.Sum64 { return core.NewSum64(levels) },
			options(depth, ngroups)))
	})
}

func runSum32(d datasets, levels, depth, ngroups int) time.Duration {
	return bench.Measure(func() {
		sinkEntries(agg.PartitionAndAggregate[float32, core.Sum32](
			d.keys, d.f32, func() core.Sum32 { return core.NewSum32(levels) },
			options(depth, ngroups)))
	})
}

func runBuf64(d datasets, levels, depth, ngroups, bsz int) time.Duration {
	return bench.Measure(func() {
		sinkEntries(agg.PartitionAndAggregate[float64, core.Buffered64](
			d.keys, d.f64, func() core.Buffered64 { return core.NewBuffered64(levels, bsz) },
			options(depth, ngroups)))
	})
}

func runBuf32(d datasets, levels, depth, ngroups, bsz int) time.Duration {
	return bench.Measure(func() {
		sinkEntries(agg.PartitionAndAggregate[float32, core.Buffered32](
			d.keys, d.f32, func() core.Buffered32 { return core.NewBuffered32(levels, bsz) },
			options(depth, ngroups)))
	})
}

// hashAggTime measures plain single-threaded HASHAGGREGATION (Figure 4).
func hashAggTime[V any, A any, PA interface {
	*A
	hashagg.Adder[V]
}](keys []uint32, vals []V, newA func() A, hint int) time.Duration {
	return bench.MeasureBest(2, func() {
		entries := agg.HashAggregate[V, A, PA](keys, vals, newA, hint, hashagg.Identity)
		sinkInt += len(entries)
	})
}
