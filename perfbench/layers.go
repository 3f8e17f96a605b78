package main

import (
	"math"
	"strings"
	"time"

	"repro/internal/metrics"
)

var colNames = []string{"inkernel", "server", "decomposed", "offload"}

// metricDef names one reported metric.
type metricDef struct {
	Name, Unit string
	Clock      string // "virtual", "host" or "n/a"
}

func perCol(base, unit, clock string) []metricDef {
	var out []metricDef
	for _, c := range colNames {
		out = append(out, metricDef{base + "." + c, unit, clock})
	}
	return out
}

// endToEndMetrics are reported by every untraced run, on every workload.
// Latency is gated as the mean over the workload's units of work (the
// statistic protolat reports): a closed-loop ping-pong has a handful of
// distinct round-trip times, so its quantiles do not move with the seed
// or with small changes. The quantiles are reported beside it
// (latencyQuantiles) and are part of every traced run. The simulator's
// run time is gated as CPU time: wall time also counts the time a
// virtual machine's CPUs are taken away, which drifts by tens of percent
// over minutes; it is printed beside it and is a per-layer metric.
func endToEndMetrics() []metricDef {
	out := []metricDef{
		{"setup_s", "s", "host"},
		{"cpu_s", "s", "host"},
		{"peak_rss_mb", "MB", "host"},
	}
	out = append(out, perCol("goodput_kBps", "KB/s", "virtual")...)
	return append(out, perCol("lat_mean_us", "us", "virtual")...)
}

// latencyQuantiles are the p50 and p99 latency per column (the highest
// percentile with at least ten samples beyond it on every workload).
func latencyQuantiles() []metricDef {
	return append(perCol("lat_p50_us", "us", "virtual"), perCol("lat_p99_us", "us", "virtual")...)
}

// selfBuckets are the host self-time buckets of the CPU profile: one per
// module package that does simulation work, the benchmark's own code,
// every other module package, and the runtime split into GC and the rest.
var selfBuckets = []string{"sim", "simnet", "kern", "filter", "wire", "mbuf", "stack", "core",
	"inkernel", "uxserver", "offload", "dataplane", "router", "metrics", "trace", "psd",
	"bench", "other", "runtime.gc", "runtime.other"}

// perLayerMetrics are reported by every traced run, on every workload. A
// layer the workload does not exercise reads 0.
func perLayerMetrics() []metricDef {
	v, h := "virtual", "host"
	out := []metricDef{
		{"wall_s", "s", h},
		{"sim.events", "count", h},
		{"sim.ns_per_event", "ns", h},
		{"sim.windows", "count", h},
		{"sim.proc_switch_ns", "ns", h},
		{"sim.timer_event_ns", "ns", h},
		{"go.allocs", "count", h},
		{"go.alloc_mb", "MB", h},
		{"go.gc_cycles", "count", h},
	}
	out = append(out, latencyQuantiles()...)
	for _, b := range selfBuckets {
		out = append(out, metricDef{"host.self_share." + b, "share", h})
	}
	out = append(out, metricDef{"simnet.frames", "count", v}, metricDef{"simnet.drops", "count", v})
	out = append(out, perCol("simnet.wire_util", "share", v)...)
	for _, g := range vcpuGroups {
		out = append(out, perCol("vcpu."+g+"_us", "us", v)...)
	}
	out = append(out, perCol("kern.wakeups_per_frame", "ratio", v)...)
	out = append(out, perCol("kern.rx_wait_p99_us", "us", v)...)
	out = append(out,
		metricDef{"filter.run_ns_per_frame", "ns", h},
		metricDef{"filter.examined_per_frame", "count", h},
		metricDef{"wire.parse_ns_per_frame", "ns", h},
		metricDef{"wire.checksum_ns_per_kb", "ns", h},
		metricDef{"wire.fixup_ns", "ns", h},
		metricDef{"mbuf.alloc_release_ns", "ns", h})
	out = append(out, perCol("stack.copies_per_byte", "ratio", v)...)
	out = append(out,
		metricDef{"stack.pure_ack_share", "share", v},
		metricDef{"stack.rexmits", "count", v},
		metricDef{"core.sessions_made", "count", v},
		metricDef{"core.migrations", "count", v},
		metricDef{"core.slowpath_share.decomposed", "share", v},
		metricDef{"core.slowpath_share.offload", "share", v},
		metricDef{"offload.coalesce_ratio", "ratio", v},
		metricDef{"offload.tso_slices_per_super", "ratio", v},
		metricDef{"offload.rx_immediate_share", "share", v},
		metricDef{"offload.sw_fallback_share", "share", v},
		metricDef{"dataplane.ingress_ns_per_frame", "ns", h},
		metricDef{"dataplane.frames_inspected", "count", v},
		metricDef{"dataplane.rewrites", "count", v},
		metricDef{"dataplane.ct_created", "count", v},
		metricDef{"dataplane.flows_left", "count", v},
		metricDef{"dataplane.snat_left", "count", v},
		metricDef{"router.forwarded", "count", v},
		metricDef{"router.red_drops", "count", v},
		metricDef{"router.queue_max", "count", v})
	out = append(out, perCol("api.connect_p99_us", "us", v)...)
	out = append(out, perCol("api.response_p99_us", "us", v)...)
	return append(out,
		metricDef{"gen.late_p99_us", "us", v},
		metricDef{"trace.overhead_share", "share", h})
}

var vcpuGroups = []string{"socket", "transport", "ip", "driver", "delivery"}

func metricIndex() map[string]metricDef {
	idx := map[string]metricDef{}
	for _, m := range append(endToEndMetrics(), perLayerMetrics()...) {
		idx[m.Name] = m
	}
	return idx
}

func unitOf(name string) string { return metricIndex()[name].Unit }

// ratio is a/b, or 0 when the layer saw no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func p99(d []time.Duration) time.Duration {
	if len(d) == 0 {
		return 0
	}
	v, _ := latQuantile(d, 0, 0.99)
	return v
}

// layerMetrics reads one traced column's registry, observer totals and
// request timelines into its per-layer values (Layer, already suffixed
// where per column) and additive counts the parent pools (Raw).
func (r *run) layerMetrics() {
	col := r.col.name
	snap := metrics.Snapshot{}
	if r.reg != nil {
		snap = r.reg.Snapshot(0)
	}
	sum := func(suffix string) float64 { return float64(snap.Sum(suffix)) }
	set := func(name string, v float64) { r.layer[name+"."+col] = v }
	add := func(name string, v float64) { r.raw[name] += v }

	// simnet: every segment and trunk direction.
	add("frames", sum(".frames_sent"))
	add("drops", sum(".drops_loss")+sum(".drops_down")+sum(".drops_malformed")+sum(".partition_drops"))
	segments := 0.0
	for _, it := range snap.Items {
		if strings.HasSuffix(it.Name, ".frames_sent") && !strings.HasPrefix(it.Name, "trunk.") {
			segments++
		}
	}
	busy := sum(".bytes_sent") * 8 / 10e6 // seconds the 10 Mb/s media spent serializing
	set("simnet.wire_util", ratio(busy, segments*r.vdur.Seconds()))

	for _, g := range vcpuGroups {
		set("vcpu."+g+"_us", us(time.Duration(ratio(float64(r.vcpu[g]), r.vcpuDiv))))
	}
	set("kern.wakeups_per_frame", ratio(sum(".kern.wakeups"), sum(".kern.rx_frames")))
	set("kern.rx_wait_p99_us", float64(r.reg.MergedHistogram(".kern.rx_wait_ns").Quantile(0.99))/1e3)
	set("stack.copies_per_byte", ratio(sum(".sock_copied_bytes"), float64(r.payload)))

	add("pure_acks", sum(".tcp_pure_acks"))
	add("tcp_out", sum(".tcp_out"))
	add("rexmits", sum(".tcp_rexmit"))
	add("sessions_made", sum(".core.sessions_made"))
	add("migrations", sum(".core.migrations"))
	if col == "decomposed" || col == "offload" {
		// Receive-side frames the OS server's stack handled, against all
		// frames the hosts' kernels received.
		var slow float64
		for _, it := range snap.Items {
			if strings.Contains(it.Name, ".stack.os") && strings.HasSuffix(it.Name, ".ip_in") {
				slow += float64(it.Value)
			}
		}
		r.layer["core.slowpath_share."+col] = ratio(slow, sum(".kern.rx_frames"))
	}
	if col == "offload" {
		wireRx := sum(".nic.rx_frames")
		r.layer["offload.coalesce_ratio"] = ratio(wireRx, sum(".lro_flushes")+sum(".rx_immediate"))
		r.layer["offload.tso_slices_per_super"] = ratio(sum(".tso_slices"), sum(".tso_super"))
		r.layer["offload.rx_immediate_share"] = ratio(sum(".rx_immediate"), wireRx)
		r.layer["offload.sw_fallback_share"] = ratio(sum(".tx_overflow")+sum(".rx_overflow"), wireRx+sum(".nic.tx_frames"))
	}
	add("dp_frames", sum(".dataplane.rx_frames"))
	add("dp_rewrites", sum(".dataplane.rewrites"))
	add("dp_ct_created", sum(".dataplane.ct.created"))
	add("rt_forwarded", sum(".forwarded"))
	add("rt_red_drops", sum(".red_drops"))
	for _, it := range snap.Items {
		if strings.HasSuffix(it.Name, ".queue_max") && float64(it.Value) > r.raw["rt_queue_max"] {
			r.raw["rt_queue_max"] = float64(it.Value)
		}
	}
	set("api.connect_p99_us", us(p99(r.connect)))
	set("api.response_p99_us", us(p99(r.response)))
	if l := us(p99(r.late)); l > r.raw["late_p99_us"] {
		r.raw["late_p99_us"] = l
	}
}

// perLayer assembles the per-layer metrics of a traced run from the
// untraced (plain) and traced children of every column and the profile
// self-time shares.
func perLayer(plain, traced []childResult, shares map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for _, m := range perLayerMetrics() {
		out[m.Name] = 0
	}
	raw := map[string]float64{}
	var events, windows, allocs, allocMB, gcs, plainWall, tracedWall float64
	for i := range plain {
		p, t := plain[i], traced[i]
		events += float64(p.Events)
		windows += float64(p.Windows)
		allocs += float64(p.Allocs)
		allocMB += p.AllocMB
		gcs += float64(p.GCCycles)
		plainWall += p.WallS
		tracedWall += t.WallS
		for k, v := range t.Layer {
			out[k] = v
		}
		out["lat_p50_us."+t.Col] = t.Virtual["lat_p50_us"]
		out["lat_p99_us."+t.Col] = t.Virtual["lat_p99_us"]
		for k, v := range t.Raw {
			if k == "rt_queue_max" || k == "late_p99_us" {
				raw[k] = math.Max(raw[k], v)
			} else {
				raw[k] += v
			}
		}
	}
	out["wall_s"] = plainWall
	out["sim.events"] = events
	out["sim.ns_per_event"] = ratio(plainWall*1e9, events)
	out["sim.windows"] = windows
	out["go.allocs"] = allocs
	out["go.alloc_mb"] = allocMB
	out["go.gc_cycles"] = gcs
	for _, b := range selfBuckets {
		out["host.self_share."+b] = shares[b]
	}
	out["simnet.frames"] = raw["frames"]
	out["simnet.drops"] = raw["drops"]
	out["stack.pure_ack_share"] = ratio(raw["pure_acks"], raw["tcp_out"])
	out["stack.rexmits"] = raw["rexmits"]
	out["core.sessions_made"] = raw["sessions_made"]
	out["core.migrations"] = raw["migrations"]
	out["dataplane.frames_inspected"] = raw["dp_frames"]
	out["dataplane.rewrites"] = raw["dp_rewrites"]
	out["dataplane.ct_created"] = raw["dp_ct_created"]
	out["dataplane.flows_left"] = raw["dp_flows_left"]
	out["dataplane.snat_left"] = raw["dp_snat_left"]
	out["router.forwarded"] = raw["rt_forwarded"]
	out["router.red_drops"] = raw["rt_red_drops"]
	out["router.queue_max"] = raw["rt_queue_max"]
	out["gen.late_p99_us"] = raw["late_p99_us"]
	out["trace.overhead_share"] = ratio(tracedWall, plainWall) - 1
	return out
}
