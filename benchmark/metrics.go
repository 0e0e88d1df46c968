package main

// metricSpec is one metric as BENCHMARK.json declares it. Bound, for
// an end-to-end metric, is the share of the parent's median by which
// it may get worse before a change counts as a regression.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the verifier sees, per workload.
// failed_share is printed too, but reaches the driver as the attempted
// and failed counts of the result line: a metric must never read 0.
var endToEnd = []metricSpec{
	{"verdict_s", "s", "lower", 0.25},
	{"states_per_s", "1/s", "higher", 0.25},
	{"peak_rss_bytes_per_state", "B", "lower", 0.15},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics; the prefix names the layer
// (module). A metric that does not apply to a workload reads 0 there.
// README.md records which end-to-end metric each should move.
var perLayer = []metricSpec{
	{Name: "ioa.enabled_ns_per_state", Unit: "ns", Better: "lower"},
	{Name: "ioa.step_ns_per_state", Unit: "ns", Better: "lower"},
	{Name: "ioa.successors_per_state", Unit: "count", Better: "lower"},
	{Name: "ioa.memo_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "ioa.encode_ns_per_state", Unit: "ns", Better: "lower"},
	{Name: "ioa.encoded_bytes_per_state", Unit: "B", Better: "lower"},
	{Name: "store.hash_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "store.intern_insert_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "store.intern_hit_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "store.arena_bytes_per_state", Unit: "B", Better: "lower"},
	{Name: "store.spill.insert_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "store.spill.hit_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "store.spill.runs", Unit: "count", Better: "lower"},
	{Name: "store.spill.disk_bytes_per_state", Unit: "B", Better: "lower"},
	{Name: "store.frontier.disk_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "store.frontier.mem_ns_per_key", Unit: "ns", Better: "lower"},
	{Name: "explore.successors_emitted", Unit: "count", Better: "lower"},
	{Name: "explore.levels", Unit: "count", Better: "lower"},
	{Name: "explore.duplicate_ratio", Unit: "ratio", Better: "lower"},
	{Name: "explore.workers1_s", Unit: "s", Better: "lower"},
	{Name: "explore.speedup_workers2", Unit: "ratio", Better: "higher"},
	{Name: "explore.residual_ns_per_state", Unit: "ns", Better: "lower"},
	{Name: "proof.verify_h2_s", Unit: "s", Better: "lower"},
	{Name: "proof.verify_h1_s", Unit: "s", Better: "lower"},
	{Name: "proof.map_ns_per_state", Unit: "ns", Better: "lower"},
	{Name: "proof.reach_share", Unit: "ratio", Better: "lower"},
	{Name: "proof.conditions_ns_per_state", Unit: "ns", Better: "lower"},
	{Name: "domain.visit_ns_per_state", Unit: "ns", Better: "lower"},
	{Name: "lattice.eval_ns_per_state", Unit: "ns", Better: "lower"},
	{Name: "induct.candidates", Unit: "count", Better: "lower"},
	{Name: "induct.transitions", Unit: "count", Better: "lower"},
	{Name: "induct.residual_ns_per_state", Unit: "ns", Better: "lower"},
	{Name: "cluster.barrier_wait_share", Unit: "ratio", Better: "lower"},
	{Name: "cluster.sent_encs_per_state", Unit: "count", Better: "lower"},
	{Name: "cluster.rank_imbalance", Unit: "ratio", Better: "lower"},
	{Name: "cluster.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_state", Unit: "B", Better: "lower"},
	{Name: "runtime.num_gc", Unit: "count", Better: "lower"},
	{Name: "obs.overhead_ratio", Unit: "ratio", Better: "lower"},
}
