package main

// Metric declarations. BENCHMARK.json lists the same names; the tests
// check that the two agree and that every name is well formed.

// metric is one reported number: its name and unit as printed, and
// which direction is better.
type metric struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the whole-run metrics a user of the simulator sees,
// reported by the untraced runs (--trace 0). Every one is host time or
// host memory, never simulated time.
var endToEnd = []metric{
	{"wall_s", "s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"delivered_pkts_per_s", "1/s", "higher"},
	{"pass_frac", "frac", "higher"},
}

// perLayer are the traced-run metrics (--trace 1). README.md maps each
// to the end-to-end metric and workload it should move. A workload that
// does not exercise a layer reports 0 for it.
var perLayer = []metric{
	{"epnet.validate_s", "s", "lower"},
	{"topo.build_s", "s", "lower"},
	{"routing.build_s", "s", "lower"},
	{"fabric.build_s", "s", "lower"},
	{"fabric.build_mb", "MB", "lower"},
	{"traffic.start_s", "s", "lower"},
	{"traffic.start_mb", "MB", "lower"},
	{"sim.warmup_s", "s", "lower"},
	{"sim.measure_s", "s", "lower"},
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"fabric.barrier_wait_frac", "frac", "lower"},
	{"fabric.exchange_events", "count", "lower"},
	{"fabric.window_eff", "frac", "higher"},
	{"core.ctrl_s", "s", "lower"},
	{"core.ctrl_events", "count", "lower"},
	{"core.reconfigs", "count", "lower"},
	{"link.occupancy_s", "s", "lower"},
	{"epnet.finish_s", "s", "lower"},
	{"fault.events", "count", "higher"},
	{"telemetry.traced_pkts", "count", "higher"},
	{"telemetry.export_s", "s", "lower"},
	{"parallel.grid_s", "s", "lower"},
	{"parallel.busy_frac", "frac", "higher"},
	{"trace.coverage_frac", "frac", "higher"},
	{"trace.wall_s", "s", "lower"},
}
