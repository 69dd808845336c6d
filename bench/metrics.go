package main

// metricDecl declares one metric: BENCHMARK.json lists exactly these, and a
// run prints exactly these (TestSchemaMatchesBenchmarkJSON).
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Bound is the share of
// the parent's median by which a metric may get worse; each is about three
// times the quartile spread measured over ten seeds on a quiet box, and above
// the spread measured during the box's slow episodes (README, noise floor).
var endToEnd = []metricDecl{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"rounds_per_s", "1/s", "higher", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.20},
	{"allocs_per_round", "count", "lower", 0.08},
	{"alloc_mb_per_round", "MB", "lower", 0.05},
}

func lower(name, unit string) metricDecl { return metricDecl{Name: name, Unit: unit, Better: "lower"} }
func higher(name, unit string) metricDecl {
	return metricDecl{Name: name, Unit: unit, Better: "higher"}
}

// perLayer are the metrics of single layers, named <module>.<metric>. A
// layer the workload does not execute reports 0 for its in-run metrics; the
// probes are the same in every workload.
var perLayer = []metricDecl{
	higher("tensor.gemm_nn_gflops", "GFLOP/s"),
	higher("tensor.gemm_tn_gflops", "GFLOP/s"),
	higher("tensor.gemm_nt_gflops", "GFLOP/s"),
	higher("tensor.sqdist_gbs", "GB/s"),
	higher("tensor.int8_block_dots_gbs", "GB/s"),

	lower("vec.sqdist_matrix_k500_ms", "ms"),
	lower("vec.sqdist_matrix_k10_ms", "ms"),
	lower("vec.median_k10_ms", "ms"),
	lower("vec.trimmed_mean_k10_ms", "ms"),

	lower("nn.train_batch_fashion_ms", "ms"),
	lower("nn.train_batch_deep_ms", "ms"),
	lower("nn.forward_deep_ms", "ms"),
	lower("nn.weight_vector_roundtrip_us", "us"),
	lower("nn.train_batch_allocs", "count"),

	lower("dataset.generate_cifar_ms", "ms"),
	lower("dataset.generate_fashion_ms", "ms"),
	lower("dataset.partition_dirichlet_ms", "ms"),

	lower("fl.train_client_ms", "ms"),
	lower("fl.train_clients_per_round", "count"),
	lower("fl.evaluate_ms", "ms"),
	lower("fl.select_us", "us"),
	lower("fl.replay_round_ms", "ms"),
	higher("fl.replay_coverage", "ratio"),

	lower("population.shard_cold_us", "us"),
	lower("population.shard_warm_us", "us"),
	lower("population.derivations_per_round", "count"),
	higher("population.cache_hit_ratio", "ratio"),
	lower("population.sample_floyd_us", "us"),
	lower("population.placement_lookup_ns", "ns"),
	lower("population.hier_aggregate_ms", "ms"),

	lower("defense.mkrum_k10_ms", "ms"),
	lower("defense.bulyan_k10_ms", "ms"),
	lower("defense.trmean_k10_ms", "ms"),
	lower("defense.median_k10_ms", "ms"),
	lower("defense.fedavg_k10_ms", "ms"),
	lower("defense.mkrum_k100_ms", "ms"),
	lower("defense.mkrum_k500_dense_ms", "ms"),
	lower("defense.mkrum_k500_frames_ms", "ms"),
	lower("defense.aggregate_share", "ratio"),

	lower("attack.minmax_craft_ms", "ms"),
	lower("attack.labelflip_craft_ms", "ms"),

	lower("core.dfar_craft_fashion_ms", "ms"),
	lower("core.dfar_craft_deep_ms", "ms"),
	lower("core.dfag_craft_fashion_ms", "ms"),
	lower("core.dfag_craft_deep_ms", "ms"),
	lower("core.refd_k10_ms", "ms"),
	lower("core.craft_share", "ratio"),

	lower("codec.encode_us", "us"),
	lower("codec.encode_wire_us", "us"),
	lower("codec.decode_wire_us", "us"),
	lower("codec.reconstruct_us", "us"),
	lower("codec.sqdist_matrix_k500_ms", "ms"),
	lower("codec.wire_bytes_per_update", "B"),

	lower("flnet.round_ms_p50", "ms"),
	lower("flnet.round_ms_p90", "ms"),
	lower("flnet.aggregate_ms", "ms"),
	lower("flnet.client_train_ms", "ms"),
	lower("flnet.transport_ms", "ms"),
	lower("flnet.uplink_bytes_per_round", "B"),
	lower("flnet.downlink_bytes_per_round", "B"),
	lower("flnet.uplink_bytes_per_client_round", "B"),
	lower("flnet.downlink_bytes_per_client_round", "B"),
	lower("flnet.writes_per_round", "count"),
	lower("flnet.reads_per_round", "count"),
	lower("flnet.join_ms", "ms"),
	lower("flnet.stragglers", "count"),
	lower("flnet.client_errors", "count"),

	lower("experiment.cell_ms_p50", "ms"),
	lower("experiment.cell_ms_max", "ms"),
	lower("experiment.unattributed_share", "ratio"),

	lower("runtime.gc_cycles", "count"),
	lower("runtime.gc_pause_total_ms", "ms"),
	lower("runtime.heap_peak_mb", "MB"),

	lower("trace.overhead_share", "ratio"),
}

func declByName(decls []metricDecl) map[string]metricDecl {
	m := make(map[string]metricDecl, len(decls))
	for _, d := range decls {
		m[d.Name] = d
	}
	return m
}
