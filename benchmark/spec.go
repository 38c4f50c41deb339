package main

import "fmt"

// The benchmark's vocabulary: workloads, end-to-end metrics and per-layer
// metrics. BENCHMARK.json at the repository root repeats these tables for
// the driver; TestBenchmarkJSONMatchesTables keeps the two in step.

// workloadSpec names one workload and why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"replay-lab-k2", "25 cliques of at most 2: time is per-clique overhead in stream/core/model, kernels are 2x2; map-to-slice and kernel-unification work shows here, mat/gauss kernel work does not"},
	{"replay-lab-k8", "7 cliques of 6-8: O(k^3) predict and O(k^2) rank-1 conditioning dominate, so mat/gauss kernel work shows here and per-clique overhead work barely does; its 3 s build makes setup_s feel cliques/mc"},
	{"ingest-paced", "open loop 2000 frames/s into a real kensinkd beside a closed-loop HTTP prober: replica mutex, queue hand-off, SLO feed and HTTP/JSON sit on the measured interval; kernel speed-ups barely move it"},
	{"ingest-flood", "two tenants written back-to-back into kensinkd with a frame budget that never sheds: reader-decode, queue and applier drain capacity and daemon CPU per frame; bypasses the source-side search"},
	{"figures", "kenbench -all -test 5000 -parallel 2 as a child: core.Run under engine, cliques, mc, simnet and the baselines, code the streaming workloads never touch"},
}

// metricSpec is one metric's name, unit and direction; Bound (end-to-end
// metrics only) is the share of the parent's median by which it may worsen
// before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// End-to-end metrics. The driver requires every run to report every one of
// them, so they are named by kind and each workload fills them with its own
// user-visible quantity (README.md, "End-to-end metrics", has the table).
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"latency_ms_p50", "ms", "lower", 0.25},
	{"cpu_us_per_unit", "us", "lower", 0.25},
	{"peak_rss_mb", "MiB", "lower", 0.25},
	{"reported_frac", "frac", "lower", 0.20},
}

// Per-layer metrics, from the traced pass. They carry no bound.
var perLayer = func() []metricSpec {
	var out []metricSpec
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricSpec{Name: n, Unit: unit, Better: better})
		}
	}
	// trace / deploy (cliques, mc)
	add("s", "lower", "trace.generate_s", "deploy.build_s")
	add("ms", "lower", "stream.new_endpoint_ms")
	// mat, at the workload's largest clique size
	add("ns", "lower", "mat.factorize_ns", "mat.rank1_ns", "mat.extend_ns", "mat.solve_ns", "mat.mul_ns")
	// gauss
	add("ns", "lower", "gauss.predict_ns", "gauss.observe1_ns", "gauss.observek_ns", "gauss.cond_add_ns", "gauss.mean_ns")
	add("count", "lower", "gauss.allocs_per_op")
	// model
	add("ns", "lower", "model.step_ns", "model.check_ns", "model.cond_eval_ns")
	add("frac", "higher", "model.suppressed_frac")
	// stream
	add("1/s", "higher", "stream.epochs_per_s")
	add("us", "lower", "stream.collect_us_p50", "stream.collect_us_p99", "stream.apply_us_p50", "stream.apply_us_p99",
		"stream.collect_base_us", "stream.collect_per_report_us", "stream.apply_base_us", "stream.apply_per_report_us",
		"stream.collect_heartbeat_us", "stream.apply_heartbeat_us")
	add("count", "lower", "stream.allocs_per_epoch")
	add("B", "lower", "stream.alloc_bytes_per_epoch")
	add("frac", "lower", "stream.self_frac")
	// core
	add("1/s", "higher", "core.epochs_per_s")
	add("us", "lower", "core.step_us_p50", "core.step_us_p99")
	add("frac", "lower", "core.reported_frac")
	add("count", "lower", "core.allocs_per_epoch")
	// wire
	add("ns", "lower", "wire.encode_ns", "wire.decode_ns")
	add("B", "lower", "wire.bytes_per_value", "wire.bytes_per_epoch")
	add("count", "lower", "wire.allocs_per_frame")
	// query
	add("ns", "lower", "query.eval_snapshot_ns")
	// sinkd
	add("ms", "lower", "sinkd.session_open_cold_ms", "sinkd.session_open_warm_ms",
		"sinkd.query_ms_p50", "sinkd.query_ms_p99",
		"sinkd.query_snapshot_ms_p50", "sinkd.query_snapshot_ms_p99", "sinkd.query_agg_ms_p50", "sinkd.query_agg_ms_p99",
		"sinkd.ingest_to_apply_ms_p50", "sinkd.ingest_to_apply_ms_p99",
		"sinkd.ingest_to_answer_ms_p95", "sinkd.ingest_to_answer_ms_p99")
	add("count", "lower", "sinkd.queue_depth_max", "sinkd.sheds")
	add("ms", "lower", "sinkd.cpu_ms_per_kframe")
	add("1/s", "higher", "sinkd.drain_frames_per_s_1t")
	add("MiB", "lower", "sinkd.rss_mb")
	// bench / engine
	for _, f := range figureNumbers {
		add("s", "lower", figureMetric(f))
	}
	add("ratio", "higher", "engine.parallel_speedup")
	// generator: validity of the run, not a target
	add("ms", "lower", "loadgen.lateness_ms_p50", "loadgen.lateness_ms_p99", "loadgen.lateness_ms_max")
	add("count", "higher", "loadgen.probes")
	add("frac", "lower", "trace.overhead_frac")
	add("s", "lower", "build.compile_s")
	return out
}()

// figureNumbers are the figures kenbench -all regenerates.
var figureNumbers = []int{7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17}

func figureMetric(n int) string { return fmt.Sprintf("bench.fig%02d_s", n) }

// fillOrder lists the workloads whose smoke-sized traced passes supply the
// per-layer metrics of layers the workload under test never executes (the
// driver wants every traced run to report every per-layer metric). The k8
// replay adds no metric the k2 replay lacks, so it is not a donor.
var fillOrder = []string{"replay-lab-k2", "ingest-paced", "ingest-flood", "figures"}
