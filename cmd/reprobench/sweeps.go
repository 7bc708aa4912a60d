package main

import (
	"fmt"
	"os"

	"repro/internal/agg"
	"repro/internal/bench"
)

// groupSweep returns the group-count sweep, capped so ngroups ≤ n.
func groupSweep(cfg config, lo, hi int) []int {
	var out []int
	for _, g := range bench.Pow2Sweep(lo, hi) {
		if g <= cfg.n {
			out = append(out, g)
		}
	}
	if cfg.quick && len(out) > 5 {
		picked := []int{out[0], out[len(out)/4], out[len(out)/2], out[3*len(out)/4], out[len(out)-1]}
		out = picked
	}
	return out
}

// runFig7 — Figure 7: PARTITIONANDAGGREGATE *without* summation buffers
// on DECIMAL(9/18/38) and repro<ScalarT,L∈{2,3}>, absolute time and
// slowdown vs the same algorithm on float.
func runFig7(cfg config) {
	tTime := bench.NewTable("Figure 7 (top): unbuffered PartitionAndAggregate, ns/elem",
		"ngroups", "float", "DEC(9)", "DEC(18)", "DEC(38)",
		"repro<f,2>", "repro<f,3>", "repro<d,2>", "repro<d,3>")
	tSlow := bench.NewTable("Figure 7 (bottom): slowdown vs float",
		"ngroups", "DEC(9)", "DEC(18)", "DEC(38)",
		"repro<f,2>", "repro<f,3>", "repro<d,2>", "repro<d,3>")
	p := workers()
	for _, g := range groupSweep(cfg, 0, 24) {
		d := makeDatasets(cfg.seed, cfg.n, uint32(g))
		dBuiltin := agg.ThresholdsBuiltin.Depth(g)
		dRepro := agg.ThresholdsReproUnbuffered.Depth(g)
		ns := func(f func() (dur int64)) float64 { return float64(f()) }
		_ = ns
		base := bench.NsPerElem(runF64(d, dBuiltin, g), p, cfg.n)
		d9 := bench.NsPerElem(runD9(d, dBuiltin, g), p, cfg.n)
		d18 := bench.NsPerElem(runD18(d, dBuiltin, g), p, cfg.n)
		d38 := bench.NsPerElem(runD38(d, dBuiltin, g), p, cfg.n)
		rf2 := bench.NsPerElem(runSum32(d, 2, dRepro, g), p, cfg.n)
		rf3 := bench.NsPerElem(runSum32(d, 3, dRepro, g), p, cfg.n)
		rd2 := bench.NsPerElem(runSum64(d, 2, dRepro, g), p, cfg.n)
		rd3 := bench.NsPerElem(runSum64(d, 3, dRepro, g), p, cfg.n)
		tTime.AddRow(g, base, d9, d18, d38, rf2, rf3, rd2, rd3)
		tSlow.AddRow(g, bench.Ratio(d9/base), bench.Ratio(d18/base), bench.Ratio(d38/base),
			bench.Ratio(rf2/base), bench.Ratio(rf3/base),
			bench.Ratio(rd2/base), bench.Ratio(rd3/base))
	}
	tTime.Fprint(os.Stdout)
	tSlow.Fprint(os.Stdout)
}

// runFig8 — Figure 8: impact of the buffer size on
// PARTITIONANDAGGREGATE with d = 0. (a) 16 groups: bigger is better,
// with diminishing returns past 2^8; (b) 1024 groups: sharp drop once
// the working set leaves the cache; (c) per-buffer-size group sweep for
// repro<float,2>, with the Eq. 4 prediction.
func runFig8(cfg config) {
	bszs := []int{16, 32, 64, 128, 256, 512, 1024}
	if cfg.quick {
		bszs = []int{16, 256, 1024}
	}
	p := workers()
	for _, g := range []int{16, 1024} {
		d := makeDatasets(cfg.seed, cfg.n, uint32(g))
		t := bench.NewTable(
			fmt.Sprintf("Figure 8(%c): %d groups, d=0, ns/elem", 'a'+rune(b2i(g == 1024)), g),
			"bsz", "repro<f,2>", "repro<f,3>", "repro<d,2>", "repro<d,3>")
		for _, bsz := range bszs {
			t.AddRow(bsz,
				bench.NsPerElem(runBuf32(d, 2, 0, g, bsz), p, cfg.n),
				bench.NsPerElem(runBuf32(d, 3, 0, g, bsz), p, cfg.n),
				bench.NsPerElem(runBuf64(d, 2, 0, g, bsz), p, cfg.n),
				bench.NsPerElem(runBuf64(d, 3, 0, g, bsz), p, cfg.n))
		}
		t.Fprint(os.Stdout)
	}
	t := bench.NewTable("Figure 8(c): repro<float,2>, d=0, group sweep, ns/elem",
		"ngroups", "bsz=16", "bsz=64", "bsz=256", "bsz=1024", "bsz=Eq4", "Eq4 value")
	for _, g := range groupSweep(cfg, 4, 14) {
		d := makeDatasets(cfg.seed, cfg.n, uint32(g))
		pred := agg.BufferSizeAt(g, 0, 4)
		t.AddRow(g,
			bench.NsPerElem(runBuf32(d, 2, 0, g, 16), p, cfg.n),
			bench.NsPerElem(runBuf32(d, 2, 0, g, 64), p, cfg.n),
			bench.NsPerElem(runBuf32(d, 2, 0, g, 256), p, cfg.n),
			bench.NsPerElem(runBuf32(d, 2, 0, g, 1024), p, cfg.n),
			bench.NsPerElem(runBuf32(d, 2, 0, g, pred), p, cfg.n),
			pred)
	}
	t.Fprint(os.Stdout)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// runFig9 — Figure 9: HASHAGGREGATION variants with different amounts
// of partitioning (d = 0, 1, 2) on buffered repro<float,2>; each depth
// wins in a different group-count range.
func runFig9(cfg config) {
	t := bench.NewTable("Figure 9: repro<float,2> with buffers, ns/elem per depth",
		"ngroups", "d=0", "d=1", "d=2")
	p := workers()
	for _, g := range groupSweep(cfg, 0, 24) {
		d := makeDatasets(cfg.seed, cfg.n, uint32(g))
		row := []any{g}
		for depth := 0; depth <= 2; depth++ {
			bsz := agg.BufferSizeAt(g, depth, 4)
			row = append(row, bench.NsPerElem(runBuf32(d, 2, depth, g, bsz), p, cfg.n))
		}
		t.AddRow(row...)
	}
	t.Fprint(os.Stdout)
}

// runFig10 — Figure 10: PARTITIONANDAGGREGATE *with* summation buffers:
// absolute time, slowdown vs float, and speedup vs the unbuffered
// algorithm of Figure 7.
func runFig10(cfg config) {
	tTime := bench.NewTable("Figure 10 (top): buffered PartitionAndAggregate, ns/elem",
		"ngroups", "float", "DEC(9)", "DEC(18)", "DEC(38)",
		"repro<f,2>", "repro<f,3>", "repro<d,2>", "repro<d,3>")
	tSlow := bench.NewTable("Figure 10 (middle): slowdown vs float",
		"ngroups", "repro<f,2>", "repro<f,3>", "repro<d,2>", "repro<d,3>")
	tSpeed := bench.NewTable("Figure 10 (bottom): speedup vs unbuffered",
		"ngroups", "repro<f,2>", "repro<f,3>", "repro<d,2>", "repro<d,3>")
	p := workers()
	for _, g := range groupSweep(cfg, 0, 24) {
		d := makeDatasets(cfg.seed, cfg.n, uint32(g))
		depth := agg.ThresholdsReproBuffered.Depth(g)
		dBuiltin := agg.ThresholdsBuiltin.Depth(g)
		dUnbuf := agg.ThresholdsReproUnbuffered.Depth(g)
		bsz32 := agg.BufferSizeAt(g, depth, 4)
		bsz64 := agg.BufferSizeAt(g, depth, 8)

		base := bench.NsPerElem(runF64(d, dBuiltin, g), p, cfg.n)
		d9 := bench.NsPerElem(runD9(d, dBuiltin, g), p, cfg.n)
		d18 := bench.NsPerElem(runD18(d, dBuiltin, g), p, cfg.n)
		d38 := bench.NsPerElem(runD38(d, dBuiltin, g), p, cfg.n)
		bf2 := bench.NsPerElem(runBuf32(d, 2, depth, g, bsz32), p, cfg.n)
		bf3 := bench.NsPerElem(runBuf32(d, 3, depth, g, bsz32), p, cfg.n)
		bd2 := bench.NsPerElem(runBuf64(d, 2, depth, g, bsz64), p, cfg.n)
		bd3 := bench.NsPerElem(runBuf64(d, 3, depth, g, bsz64), p, cfg.n)
		uf2 := bench.NsPerElem(runSum32(d, 2, dUnbuf, g), p, cfg.n)
		uf3 := bench.NsPerElem(runSum32(d, 3, dUnbuf, g), p, cfg.n)
		ud2 := bench.NsPerElem(runSum64(d, 2, dUnbuf, g), p, cfg.n)
		ud3 := bench.NsPerElem(runSum64(d, 3, dUnbuf, g), p, cfg.n)

		tTime.AddRow(g, base, d9, d18, d38, bf2, bf3, bd2, bd3)
		tSlow.AddRow(g, bench.Ratio(bf2/base), bench.Ratio(bf3/base),
			bench.Ratio(bd2/base), bench.Ratio(bd3/base))
		tSpeed.AddRow(g, bench.Ratio(uf2/bf2), bench.Ratio(uf3/bf3),
			bench.Ratio(ud2/bd2), bench.Ratio(ud3/bd3))
	}
	tTime.Fprint(os.Stdout)
	tSlow.Fprint(os.Stdout)
	tSpeed.Fprint(os.Stdout)
}

// runTab3 — Table III: geometric mean over the group sweep of the
// slowdown of buffered repro types vs float, for all eight
// repro<ScalarT,L> configurations.
func runTab3(cfg config) {
	sweep := groupSweep(cfg, 0, 24)
	p := workers()
	type series struct {
		name  string
		ratio []float64
	}
	all := []series{
		{name: "repro<float,1>"}, {name: "repro<float,2>"},
		{name: "repro<float,3>"}, {name: "repro<float,4>"},
		{name: "repro<double,1>"}, {name: "repro<double,2>"},
		{name: "repro<double,3>"}, {name: "repro<double,4>"},
	}
	for _, g := range sweep {
		d := makeDatasets(cfg.seed, cfg.n, uint32(g))
		depth := agg.ThresholdsReproBuffered.Depth(g)
		dBuiltin := agg.ThresholdsBuiltin.Depth(g)
		base := bench.NsPerElem(runF64(d, dBuiltin, g), p, cfg.n)
		for l := 1; l <= 4; l++ {
			bsz := agg.BufferSizeAt(g, depth, 4)
			ns := bench.NsPerElem(runBuf32(d, l, depth, g, bsz), p, cfg.n)
			all[l-1].ratio = append(all[l-1].ratio, ns/base)
		}
		for l := 1; l <= 4; l++ {
			bsz := agg.BufferSizeAt(g, depth, 8)
			ns := bench.NsPerElem(runBuf64(d, l, depth, g, bsz), p, cfg.n)
			all[4+l-1].ratio = append(all[4+l-1].ratio, ns/base)
		}
	}
	t := bench.NewTable("Table III: geomean slowdown of buffered repro vs float",
		"data type", "slowdown")
	for _, s := range all {
		t.AddRow(s.name, bench.Ratio(bench.Geomean(s.ratio)))
	}
	t.Fprint(os.Stdout)
}

// runFig11 — Figure 11 (appendix): performance on (almost) distinct
// data for several input sizes; the drop appears whenever
// n/ngroups < 2^6, independent of n.
func runFig11(cfg config) {
	t := bench.NewTable("Figure 11: repro<float,2> buffered (bsz=256), distinct data, ns/elem",
		"ngroups", "n", "n/ngroups", "ns/elem")
	p := workers()
	sizes := []int{cfg.n / 16, cfg.n / 4, cfg.n}
	for _, n := range sizes {
		if n < 1024 {
			continue
		}
		sub := cfg
		sub.n = n
		for _, g := range groupSweep(sub, pow2Floor(n)-10, pow2Floor(n)) {
			d := makeDatasets(cfg.seed, n, uint32(g))
			depth := agg.ThresholdsReproBuffered.Depth(g)
			t.AddRow(g, n, n/g, bench.NsPerElem(runBuf32(d, 2, depth, g, 256), p, n))
		}
	}
	t.Fprint(os.Stdout)
}

func pow2Floor(n int) int {
	e := 0
	for 1<<(e+1) <= n {
		e++
	}
	return e
}

// runFig12 — Figure 12 (appendix): buffer-size impact with one level of
// partitioning (fan-out 256): same shape as Figure 8, shifted by the
// fan-out.
func runFig12(cfg config) {
	bszs := []int{16, 32, 64, 128, 256, 512, 1024}
	if cfg.quick {
		bszs = []int{16, 256, 1024}
	}
	p := workers()
	for _, g := range []int{4096, 262144} {
		if g > cfg.n {
			continue
		}
		d := makeDatasets(cfg.seed, cfg.n, uint32(g))
		t := bench.NewTable(
			fmt.Sprintf("Figure 12: %d groups, d=1, ns/elem", g),
			"bsz", "repro<f,2>", "repro<f,3>", "repro<d,2>", "repro<d,3>")
		for _, bsz := range bszs {
			t.AddRow(bsz,
				bench.NsPerElem(runBuf32(d, 2, 1, g, bsz), p, cfg.n),
				bench.NsPerElem(runBuf32(d, 3, 1, g, bsz), p, cfg.n),
				bench.NsPerElem(runBuf64(d, 2, 1, g, bsz), p, cfg.n),
				bench.NsPerElem(runBuf64(d, 3, 1, g, bsz), p, cfg.n))
		}
		t.Fprint(os.Stdout)
	}
	t := bench.NewTable("Figure 12(c): repro<float,2>, d=1, group sweep, ns/elem",
		"ngroups", "bsz=16", "bsz=64", "bsz=256", "bsz=1024", "bsz=Eq4", "Eq4 value")
	for _, g := range groupSweep(cfg, 12, 22) {
		d := makeDatasets(cfg.seed, cfg.n, uint32(g))
		pred := agg.BufferSizeAt(g, 1, 4)
		t.AddRow(g,
			bench.NsPerElem(runBuf32(d, 2, 1, g, 16), p, cfg.n),
			bench.NsPerElem(runBuf32(d, 2, 1, g, 64), p, cfg.n),
			bench.NsPerElem(runBuf32(d, 2, 1, g, 256), p, cfg.n),
			bench.NsPerElem(runBuf32(d, 2, 1, g, 1024), p, cfg.n),
			bench.NsPerElem(runBuf32(d, 2, 1, g, pred), p, cfg.n),
			pred)
	}
	t.Fprint(os.Stdout)
}
