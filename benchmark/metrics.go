package main

import (
	"encoding/json"
	"slices"
)

// metricDef declares one metric of BENCHMARK.json. bound is the share of
// the parent's median an end-to-end metric may worsen by; per-layer metrics
// have none, and a zero bound is left out of the file.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is BENCHMARK.json's run_seconds and the default of --seconds.
const runSeconds = 15

// endToEnd is what a user of the system sees; every workload reports all of
// them from its untraced run. See README.md for the definitions.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"rows_per_s", "rows/s", "higher", 0.25},
	{"op_best_ms", "ms", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
}

func lower(unit string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

// perLayer is the ledger of single layers; every workload reports all of
// them from its traced run, measured on its own rows.
var perLayer = slices.Concat(
	lower("x", "bench.repro_slowdown"),
	lower("ms", "bench.repro_best_ms", "bench.repro_p50_ms", "bench.base_best_ms", "bench.base_p50_ms"),
	[]metricDef{{Name: "bench.pairs", Unit: "count", Better: "higher"}},

	lower("ns", "rsum.plain_ns_per_elem",
		"rsum.add_ns_per_elem", "rsum.addslice_ns_per_elem", "rsum.addslicevec_ns_per_elem",
		"rsum.l4_add_ns_per_elem", "rsum.l4_addslice_ns_per_elem", "rsum.l4_addslicevec_ns_per_elem",
		"rsum.add32_ns_per_elem", "rsum.addslice32_ns_per_elem", "rsum.addslicevec32_ns_per_elem",
		"rsum.merge_ns", "rsum.appendbinary_ns", "rsum.mergebinary_ns"),
	lower("x", "rsum.kernel_slowdown"),

	lower("ns", "core.buffered_add_ns_per_elem", "core.sum64_add_ns_per_elem"),
	lower("ns", "partition.do_ns_per_row", "partition.dobuffered_ns_per_row"),
	lower("ns", "hashagg.upsert_ns_per_row_f64", "hashagg.upsert_ns_per_row_repro"),
	lower("MiB", "hashagg.table_mb"),

	lower("ms", "agg.op_ms", "agg.float_op_ms", "agg.finalize_ms", "agg.shared_op_ms", "agg.adaptive_op_ms"),
	lower("count", "agg.depth", "agg.bsz", "agg.groups_out"),

	lower("ns", "sqlagg.add_ns_per_row", "sqlagg.encode_ns_per_tuple", "sqlagg.merge_ns_per_tuple"),
	lower("B", "sqlagg.tuple_bytes"),

	lower("ns", "engine.groupedsum_plain_ns_per_row", "engine.groupedsum_repro_ns_per_row", "engine.groupedsum_buffered_ns_per_row"),
	lower("x", "engine.q1_e2e_slowdown"),

	lower("ms", "dist.tcp_op_ms", "dist.chan_op_ms", "dist.encode_groups_ms", "dist.decode_groups_ms"),
	lower("B", "dist.wire_bytes_per_op"),
	lower("count", "dist.frames_per_op", "dist.allocs_per_op"),
	lower("MiB", "dist.alloc_mb_per_op"),

	lower("ms", "proc.job_ms", "proc.overhead_ms", "proc.encode_payload_ms", "proc.cluster_start_ms"),
	lower("B", "proc.dispatch_bytes"),
	lower("MiB", "proc.worker_peak_rss_mb"),
	lower("count", "proc.replacements"),

	lower("us", "serve.admission_us", "serve.cache_lookup_us", "serve.queue_wait_us", "serve.cache_fill_us"),
	lower("ms", "serve.execute_ms", "serve.hit_p50_ms", "serve.hit_tail_ms", "serve.miss_p50_ms", "serve.miss_tail_ms"),
	lower("%", "serve.hit_tail_pct", "serve.miss_tail_pct"),
	lower("count", "serve.allocs_per_miss", "serve.allocs_per_hit", "serve.rejected"),
	[]metricDef{
		{Name: "serve.trace_closure", Unit: "ratio", Better: "higher"},
		{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
		{Name: "serve.queries_per_s", Unit: "1/s", Better: "higher"},
	},

	lower("%", "obs.trace_overhead_pct", "obs.trace_hit_overhead_pct", "obs.driver_span_overhead_pct"),
)

// specJSON renders BENCHMARK.json from the declarations above, so the file
// at the root of the repo cannot drift from what the program emits
// (TestSpecMatchesBenchmarkJSON compares the two).
func specJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	spec := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.name, w.why})
	}
	out, _ := json.MarshalIndent(spec, "", "  ")
	return append(out, '\n')
}
