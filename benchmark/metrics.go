package main

// metricDef names a reported metric and its unit. BENCHMARK.json at the
// repository root lists the same names (a test keeps them in step).
type metricDef struct {
	name, unit string
}

// endToEndMetrics are measured untraced (--trace 0) on every workload. An
// "operation" is one Session.Step on the flow workloads and one job
// (submit to result fetched) on the jobs workloads; a "pass" is one run of
// every flow case, or one batch of jobs.
var endToEndMetrics = []metricDef{
	{"setup_s", "s"},         // median of the repeated input generation, pre-optimization and server start-up
	{"wall_s", "s"},          // time of one pass
	{"op_p50_ms", "ms"},      // operation latency, median
	{"op_p90_ms", "ms"},      // operation latency, 90th percentile
	{"ops_per_s", "1/s"},     // operations completed per second
	{"and_ratio", "ratio"},   // geomean of final/initial AND count
	{"area_ratio", "ratio"},  // geomean of final/initial mapped area (MCNC cells)
	{"delay_ratio", "ratio"}, // geomean of final/initial mapped delay
	{"rss_mb", "MiB"},        // resident set after the minimum passes, garbage collected
}

// perLayerMetrics come from a traced run (--trace 1). Times and counts are
// per pass for the flow layers; the HTTP, service and cluster times are
// per-request medians. A layer a workload does not exercise reads 0.
var perLayerMetrics = []metricDef{
	{"core.session_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.steps", "count"},
	{"core.step_p50_ms", "ms"},
	{"core.step_tail_ms", "ms"},
	{"core.step_tail_pct", "pct"},
	{"core.step_samples", "count"},
	{"sim.care_ms", "ms"},
	{"sim.care_draws", "count"},
	{"sim.update_ms", "ms"},
	{"resub.gen_ms", "ms"},
	{"resub.candidates", "count"},
	{"resub.full_scan_ratio", "ratio"},
	{"window.gen_ms", "ms"},
	{"window.candidates", "count"},
	{"window.full_scan_ratio", "ratio"},
	{"errest.rank_ms", "ms"},
	{"errest.pruned_ratio", "ratio"},
	{"exact.cert_ms", "ms"},
	{"exact.certs_trivial", "count"},
	{"exact.certs_exhaustive", "count"},
	{"exact.certs_sat", "count"},
	{"exact.sat_conflicts", "count"},
	{"exact.reject_ratio", "ratio"},
	{"aig.apply_ms", "ms"},
	{"aig.commits", "count"},
	{"opt.flush_ms", "ms"},
	{"opt.flushes", "count"},
	{"opt.flush_ratio", "ratio"},
	{"http.submit_ms", "ms"},
	{"http.status_ms", "ms"},
	{"http.result_ms", "ms"},
	{"http.status_polls", "count"},
	{"service.queue_ms", "ms"},
	{"service.run_ms", "ms"},
	{"service.checkpoints", "count"},
	{"cluster.queue_ms", "ms"},
	{"cluster.compute_ms", "ms"},
	{"cluster.claim_ms", "ms"},
	{"cluster.circuit_ms", "ms"},
	{"cluster.checkpoint_ms", "ms"},
	{"cluster.result_ms", "ms"},
	{"cluster.idle_claim_ratio", "ratio"},
	{"cluster.cache_hit_ratio", "ratio"},
	{"cluster.checkpoints", "count"},
	{"trace.overhead_pct", "pct"},
}
