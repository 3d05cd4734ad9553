package main

// The metric catalogue. BENCHMARK.json lists the same names, units and
// directions; TestCatalogMatchesBenchmarkJSON keeps the two in sync. The
// "moves" column records, for every per-layer metric, the end-to-end metric
// and workload it is expected to move, so a later change that claims a gain
// on a layer names its prediction before it is measured.

type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	moves  string // per-layer only: the end-to-end metric it should move
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "ops_per_s", unit: "1/s", better: "higher"},
	{name: "visible_p50_ms", unit: "ms", better: "lower"},
	{name: "visible_p99_ms", unit: "ms", better: "lower"},
	{name: "apply_p50_ms", unit: "ms", better: "lower"},
	{name: "apply_p99_ms", unit: "ms", better: "lower"},
	{name: "heap_bytes_per_fact", unit: "bytes", better: "lower"},
}

// perLayer are the traced run's metrics. A layer a workload does not reach
// reports 0 (for example daemon.* on feed, transport.send_us on wire).
var perLayer = []metricDef{
	{"daemon.backpressure_waits_per_req", "count", "lower", "apply_p99_ms on wire"},
	{"daemon.rejected_per_req", "count", "lower", "failed ops on wire"},

	{"parser.parse_fact_us", "us", "lower", "apply_p50_ms on wire; no change on feed or wepic"},

	{"peer.stages_per_op", "count", "lower", "ops_per_s and visible_p50_ms on feed"},
	{"peer.stages_skipped_ratio", "ratio", "lower", "ops_per_s on feed"},
	{"peer.stage_us_per_op", "us", "lower", "ops_per_s and visible_p50_ms on feed (O(delta) emission cuts it)"},
	{"peer.fixpoint_rounds_per_stage", "count", "lower", "visible_p50_ms on feed"},
	{"peer.facts_out_per_op", "count", "lower", "unchanged by O(delta) emission on feed"},
	{"peer.derived_per_op", "count", "lower", "ops_per_s on feed"},
	{"peer.delegations_per_op", "count", "lower", "ops_per_s on wepic"},

	{"peer.outbox.msgs_per_op", "count", "lower", "ops_per_s and visible_p99_ms on wire"},
	{"peer.outbox.facts_per_msg", "count", "higher", "ops_per_s on wire"},
	{"peer.outbox.acked_ratio", "ratio", "higher", "visible_p99_ms on wire"},
	{"peer.outbox.retransmits_per_kmsg", "count", "lower", "visible_p99_ms on wire and wepic"},
	{"peer.outbox.send_errors", "count", "lower", "visible_p99_ms on wire"},
	{"peer.outbox.depth_max", "count", "lower", "visible_p99_ms on wire"},
	{"peer.outbox.resync_bytes_per_op", "bytes", "lower", "visible_p99_ms on wepic"},
	{"peer.outbox.resync_adverts", "count", "lower", "visible_p99_ms on wepic"},

	{"peer.sched.round_us", "us", "lower", "visible_p50_ms on feed and wepic; no change on wire"},
	{"peer.sched.rounds_per_round", "count", "lower", "visible_p50_ms on feed and wepic"},
	{"peer.sched.stages_per_round", "count", "lower", "visible_p50_ms on feed and wepic"},
	{"peer.sched.scans_per_round", "count", "lower", "visible_p50_ms on feed"},
	{"peer.sched.stage_share", "ratio", "higher", "visible_p50_ms on feed"},

	{"peer.subscribe.deltas_per_op", "count", "lower", "visible_p50_ms on wire"},
	{"peer.subscribe.drops", "count", "lower", "failed ops on wire"},
	{"peer.subscribe.unobserved_inserts", "count", "lower", "failed ops on wire"},
	{"peer.subscribe.visible_local_p50_ms", "ms", "lower", "visible_p50_ms on wire (daemon-on-Mux cuts only this)"},
	{"peer.subscribe.visible_remote_p50_ms", "ms", "lower", "visible_p50_ms on wire"},

	{"engine.compiles_per_op", "count", "lower", "ops_per_s on wepic"},
	{"engine.compiled_hit_ratio", "ratio", "higher", "ops_per_s on wepic"},
	{"engine.plan_cache_hit_ratio", "ratio", "higher", "ops_per_s on wepic"},

	{"store.facts", "count", "lower", "heap_bytes_per_fact on feed and wepic"},
	{"store.indexes", "count", "lower", "heap_bytes_per_fact on feed and wepic"},

	{"value.interned_tuples_per_fact", "ratio", "lower", "heap_bytes_per_fact on feed"},
	{"value.interned_strings", "count", "lower", "heap_bytes_per_fact on feed"},

	{"protocol.encode_us_per_msg", "us", "lower", "ops_per_s and visible_p50_ms on wire; no change on feed or wepic"},
	{"protocol.decode_us_per_msg", "us", "lower", "ops_per_s and visible_p50_ms on wire; no change on feed or wepic"},
	{"protocol.bytes_per_msg", "bytes", "lower", "ops_per_s on wire"},
	{"protocol.allocs_per_msg", "count", "lower", "ops_per_s on wire"},

	{"transport.sends_per_op", "count", "lower", "ops_per_s on feed and wepic"},
	{"transport.send_us", "us", "lower", "ops_per_s on feed"},
	{"transport.acks_per_data_msg", "ratio", "lower", "ops_per_s on feed"},
	{"transport.envelopes_per_drain", "count", "higher", "ops_per_s on feed"},

	{"runtime.cpu_ms_per_op", "ms", "lower", "ops_per_s on feed; visible_p99_ms on all three"},
	{"runtime.alloc_bytes_per_op", "bytes", "lower", "ops_per_s on feed"},
	{"runtime.allocs_per_op", "count", "lower", "ops_per_s on feed"},
	{"runtime.gc_per_kop", "count", "lower", "visible_p99_ms on all three"},
	{"runtime.gc_pause_us_per_op", "us", "lower", "visible_p99_ms on all three"},

	{"trace.ops_ratio", "ratio", "higher", "tracing overhead: traced over untraced ops_per_s"},
	{"trace.spans_per_op", "count", "lower", "tracing overhead"},
	{"trace.apply_self_us_per_op", "us", "lower", "apply_p50_ms"},
	{"trace.quiesce_self_us_per_op", "us", "lower", "visible_p50_ms on feed and wepic"},
	{"trace.send_self_us_per_op", "us", "lower", "ops_per_s on feed"},
	{"trace.wait_self_us_per_op", "us", "lower", "visible_p50_ms on wire"},
}

// workloadDef names a workload and why it is in the benchmark.
type workloadDef struct {
	name string
	why  string
}

var workloadDefs = []workloadDef{
	{"feed", "200 mux peers follow 8 authors each via push rules; 64-post windows: per-update cost of re-emitting whole views, keys, ledgers, scheduler"},
	{"wire", "two wdld daemons on loopback, 2 HTTP clients, 128-fact hub view mirrored to a co-hosted and a remote replica: HTTP, parser, admission, outbox, gob, TCP"},
	{"wepic", "1000 Wepic attendees on the bus: selection switches move delegations, ratings and uploads; delegation install/withdraw, compilation, DRed, async flushers"},
}
