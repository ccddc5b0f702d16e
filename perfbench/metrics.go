package main

import "fmt"

// metricDef names one reported metric and its unit. The two tables below
// are what BENCHMARK.json declares; TestMetricsMatchBenchmarkJSON keeps
// them in step.
type metricDef struct {
	name, unit string
}

// endToEnd is reported by every --trace 0 run. Each workload defines
// which operations "op" means; README.md gives the definitions.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"cpu_us_per_op", "us"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p90_us", "us"},
}

// perLayer is reported by every --trace 1 run; a layer the workload does
// not exercise reads 0.
var perLayer = []metricDef{
	{"client.submit_ns", "ns"},
	{"client.read_p50_us", "us"},
	{"client.read_p99_us", "us"},
	{"client.write_p99_us", "us"},
	{"client.outside_server_p50_us", "us"},
	{"protocol.roundtrip_ns", "ns"},
	{"protocol.roundtrip_allocs", "count"},
	{"bufpool.miss_frac", "ratio"},
	{"server.read_p50_us", "us"},
	{"server.read_p99_us", "us"},
	{"server.write_p99_us", "us"},
	{"server.flushes_per_op", "count"},
	{"server.flush_batch_mean", "count"},
	{"server.sched_batch_mean", "count"},
	{"server.queue_depth_max", "count"},
	{"server.stage.parse_p50_us", "us"},
	{"server.stage.parse_p99_us", "us"},
	{"server.stage.queue_p50_us", "us"},
	{"server.stage.queue_p99_us", "us"},
	{"server.stage.submit_p50_us", "us"},
	{"server.stage.submit_p99_us", "us"},
	{"server.stage.device_p50_us", "us"},
	{"server.stage.device_p99_us", "us"},
	{"server.stage.tx_p50_us", "us"},
	{"server.stage.tx_p99_us", "us"},
	{"core.schedule_ns", "ns"},
	{"core.enqueue_ns", "ns"},
	{"core.round_allocs", "count"},
	{"core.token_util", "ratio"},
	{"ctrl.shed", "count"},
	{"readcache.hit_ratio", "ratio"},
	{"readcache.fill_abort_frac", "ratio"},
	{"readcache.evictions_per_op", "count"},
	{"readcache.invalidations_per_write", "count"},
	{"readcache.probe_ns", "ns"},
	{"volume.snapshot_p50_us", "us"},
	{"volume.snapshot_max_us", "us"},
	{"volume.device_bytes_per_user_byte", "ratio"},
	{"volume.translate_ns", "ns"},
	{"volume.freed_per_snap_delete", "count"},
	{"volume.resets_per_snapshot", "ratio"},
	{"storage.read_ns", "ns"},
	{"storage.write_ns", "ns"},
	{"storage.reads_per_read", "count"},
	{"proc.allocs_per_op", "count"},
	{"proc.gc_cpu_frac", "ratio"},
	{"proc.heap_peak_mb", "MB"},
	{"sim.fig5_s", "s"},
	{"sim.fig6b_s", "s"},
	{"gen.late_p99_us", "us"},
	{"gen.lc_read_p50_us", "us"},
	{"gen.lc_read_p99_us", "us"},
	{"trace.overhead", "ratio"},
	{"trace.coverage", "ratio"},
}

var units = func() map[string]string {
	u := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		u[d.name] = d.unit
	}
	return u
}()

// set records a declared metric; an undeclared name is a bug.
func (r *report) set(name string, v float64) {
	unit, ok := units[name]
	if !ok {
		panic(fmt.Sprintf("perfbench: undeclared metric %q", name))
	}
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// zeroLayers reports every per-layer metric as 0 before a traced run
// fills in the layers its workload exercises.
func (r *report) zeroLayers() {
	for _, d := range perLayer {
		r.set(d.name, 0)
	}
}
