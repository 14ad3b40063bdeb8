package main

import "strings"

// Workload names, in run order.
const (
	wlHotDisk = "hotstock-disk"
	wlHotPM   = "hotstock-pm"
	wlOpen    = "openloop-pm-mix"
	wlFault   = "fault-recover"
)

var (
	onAll  = []string{wlHotDisk, wlHotPM, wlOpen, wlFault}
	onHot  = []string{wlHotDisk, wlHotPM}
	onOpen = []string{wlOpen}
	onFlt  = []string{wlFault}
)

// metricDef names one metric the benchmark prints.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// endToEnd metrics are what a user of the system sees and carry a
	// bound; the rest are single-layer metrics from the traced pass.
	endToEnd bool
	// bound is the share by which -compare lets an end-to-end metric get
	// worse between two runs of one seed before calling it a regression.
	bound float64
	// on lists the workloads the metric is defined on; elsewhere it is
	// reported as 0, which for a per-layer metric is the bypass
	// prediction ("this workload does not touch that layer").
	on []string
	// driver: listed under end_to_end in BENCHMARK.json, so printed by
	// every `--trace 0` run on every workload. Only metrics that are
	// defined and non-zero on all four workloads qualify, and a
	// virtual time cannot: it reads the same at every seed the
	// program's inputs do not depend on, which the driver refuses.
	driver bool
	// unlisted: printed by the full run but left out of BENCHMARK.json's
	// per_layer list, which holds at most 128 names.
	unlisted bool
}

func (d metricDef) definedOn(workload string) bool {
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}

// virtual reports whether an end-to-end metric is a deterministic
// property of the modelled store, which two runs of one seed must
// reproduce exactly, rather than a host measurement of the simulator.
func (d metricDef) virtual() bool {
	return strings.HasPrefix(d.name, "virt_") || d.name == "fail_pct"
}

// metricDefs is every metric, in print order: the fifteen end-to-end
// metrics, then the per-layer families.
var metricDefs = buildMetricDefs()

func buildMetricDefs() []metricDef {
	var defs []metricDef
	e2e := func(name, unit, better string, bound float64, on []string, driver bool) {
		defs = append(defs, metricDef{name: name, unit: unit, better: better,
			endToEnd: true, bound: bound, on: on, driver: driver})
	}
	layer := func(name, unit, better string, on []string) {
		defs = append(defs, metricDef{name: name, unit: unit, better: better, on: on})
	}

	// End to end. Host time first, then virtual time.
	e2e("wall_s", "s", "lower", 0.20, onAll, true)
	e2e("setup_s", "s", "lower", 0.25, onAll, true)
	e2e("alloc_mb", "MB", "lower", 0.03, onAll, true)
	e2e("allocs_per_txn", "count", "lower", 0.02, onAll, true)
	e2e("virt_txn_per_s", "tx/s", "higher", 0.06, onAll, true)
	e2e("virt_resp_p50_us", "us", "lower", 0.005, onHot, false)
	e2e("virt_resp_p99_us", "us", "lower", 0.005, onHot, false)
	e2e("virt_sojourn_p99_us_r1530", "us", "lower", 0.005, onOpen, false)
	e2e("virt_sojourn_p99_us_r2295", "us", "lower", 0.005, onOpen, false)
	e2e("virt_sojourn_p99_us_r3060", "us", "lower", 0.005, onOpen, false)
	e2e("virt_max_rate_tps", "tx/s", "higher", 0, onOpen, false)
	e2e("virt_xs_p99_us", "us", "lower", 0.005, onOpen, false)
	e2e("virt_mttr_ms", "ms", "lower", 0.005, onFlt, false)
	e2e("virt_persist_bytes_per_user_byte", "ratio", "lower", 0.005, onHot, false)
	e2e("fail_pct", "%", "lower", 0, onAll, false)

	// Host phases: Σ = wall_s.
	for _, p := range phaseNames {
		layer("phase_s."+p, "s", "lower", onAll)
	}
	// Host self time by layer: Σ = 100.
	for _, l := range cpuLayers {
		layer("host_self_pct."+l, "%", "lower", onAll)
	}
	// Allocations by layer: Σ ≈ allocs_per_txn.
	for _, l := range allocLayers {
		layer("allocs_per_txn."+l, "count", "lower", onAll)
	}
	// The host's speed while the run was measured, and the simulation
	// kernel.
	layer("host.yardstick_s", "s", "lower", onAll)
	layer("sim.events_per_txn", "count", "lower", onAll)
	layer("sim.host_ns_per_event", "ns", "lower", onAll)
	layer("sim.virt_s_per_host_s", "ratio", "higher", onAll)
	// Commit path: Σ = mean response, to the tick.
	for _, p := range commitPhases {
		layer("tmf.virt_phase_us."+p, "us", "lower", onAll)
	}
	layer("dp2.virt_insert_us", "us", "lower", onAll)
	layer("dp2.virt_checkpoint_us", "us", "lower", onAll)
	layer("dp2.virt_audit_send_us", "us", "lower", onAll)
	layer("dp2.audit_sends_per_txn", "count", "lower", onAll)
	layer("adp.virt_boxcar_wait_us", "us", "lower", onAll)
	layer("adp.virt_flush_disk_us", "us", "lower", onAll)
	layer("adp.waiters_per_flush", "count", "higher", onAll)
	layer("disk.audit.virt_queue_us", "us", "lower", onAll)
	layer("disk.audit.util_pct", "%", "lower", onAll)
	layer("disk.data.virt_queue_us", "us", "lower", onAll)
	layer("disk.data.util_pct", "%", "lower", onAll)
	layer("servernet.ops_per_txn", "count", "lower", onAll)
	layer("servernet.bytes_per_txn", "B", "lower", onAll)
	layer("servernet.virt_transfer_us", "us", "lower", onAll)
	layer("pmclient.writes_per_txn", "count", "lower", onAll)
	layer("pmclient.virt_write_us", "us", "lower", onAll)
	layer("locks.virt_wait_us_p99", "us", "lower", onAll)
	layer("locks.waits_per_txn", "count", "lower", onAll)
	layer("loadgen.virt_queue_wait_us_p99", "us", "lower", onOpen)
	layer("loadgen.max_depth", "count", "lower", onOpen)
	layer("loadgen.hot_shard_pct", "%", "lower", onOpen)
	// Write-amplification hops: Σ = virt_persist_bytes_per_user_byte × 4096.
	for _, h := range []string{"dp2.ckpt", "dp2.audit", "dp2.destage", "dp2.pm", "adp.ckpt", "adp.device"} {
		layer(h+"_bytes_per_row", "B", "lower", onHot)
	}
	// Recovery and faults.
	for _, c := range []string{"disk", "pm-scan", "pm-tcb"} {
		layer("recovery.virt_mttr_ms."+c, "ms", "lower", onFlt)
	}
	layer("recovery.records_scanned.disk", "count", "lower", onFlt)
	layer("recovery.records_scanned.pm-tcb", "count", "lower", onFlt)
	layer("faultinject.firings", "count", "higher", onFlt)
	layer("tmf.in_doubt_resolved", "count", "higher", onFlt)
	layer("consistency.events_checked", "count", "higher", onFlt)
	layer("metrics.trace_overhead_pct", "%", "lower", onAll)
	// Layer probes. Event counts that the rig fixes by construction (or
	// that only restate the rig) are printed but not listed.
	for _, p := range probeNames {
		layer("probe."+p+".host_ns", "ns", "lower", onAll)
		layer("probe."+p+".allocs", "count", "lower", onAll)
		layer("probe."+p+".events", "count", "lower", onAll)
		if !probeEventsListed[p] {
			defs[len(defs)-1].unlisted = true
		}
		if probeHasVirt[p] {
			layer("probe."+p+".virt_us", "us", "lower", onAll)
		}
	}
	return defs
}

var probeNames = []string{
	"sim.dispatch", "sim.wait", "sim.pingpong", "cluster.call", "cluster.checkpoint",
	"servernet.rdma_write", "disk.write", "pmclient.write", "btree.set",
	"locks.acquire_release", "ods.insert", "ods.commit",
}

// probeHasVirt marks the probes whose virtual cost is claim C1's
// storage gap.
var probeHasVirt = map[string]bool{
	"cluster.call": true, "servernet.rdma_write": true, "disk.write": true, "pmclient.write": true,
}

var probeEventsListed = map[string]bool{
	"cluster.call": true, "pmclient.write": true, "ods.insert": true, "ods.commit": true,
}

// driverEndToEnd and driverPerLayer are the two metric sets of
// BENCHMARK.json: what a `--trace 0` and a `--trace 1` run print.
func driverEndToEnd() []metricDef {
	var out []metricDef
	for _, d := range metricDefs {
		if d.driver {
			out = append(out, d)
		}
	}
	return out
}

func driverPerLayer() []metricDef {
	var out []metricDef
	for _, d := range metricDefs {
		// fail_pct is the result line's failed/attempted, and
		// virt_mttr_ms is recovery.virt_mttr_ms.pm-tcb under its
		// end-to-end name.
		if d.driver || d.unlisted || d.name == "fail_pct" || d.name == "virt_mttr_ms" {
			continue
		}
		out = append(out, d)
	}
	return out
}
