package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's contract with BENCHMARK.json: every workload reports
// every end-to-end metric untraced and every per-layer metric traced.
type metricDef struct {
	name, unit string
}

func rateName(prefix string, rate int) string { return fmt.Sprintf("%s.r%d", prefix, rate) }

var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"round_s", "s"},
	{"alloc_mb", "MB"},
	{"heap_live_mb", "MB"},
	{"probe_packets", "count"},
	{"sim_measure_h", "h"},
	{"query_cpu_us", "us"},
	{"query_max_rps", "1/s"},
}

// httpKinds are the query kinds of the serving mix, as named in
// http.handler_us.<kind>.
var httpKinds = []string{"owner", "owner_miss", "link", "neighbors", "gen", "diff", "status"}

// selfLayers are the span names whose self time the traced run reports
// as self_s.<name>.
var selfLayers = []string{
	"round", "topo", "bgp", "asrel", "inputs", "fleet", "shard", "scamper", "core",
	"mapdb.compile", "mapdb.publish", "serve.build", "replicate.apply", "replicate.adopt", "http.rung",
}

var layerMetrics = func() []metricDef {
	defs := []metricDef{
		// Tail figures: on a shared 2-vCPU VM their run-to-run spread is
		// far wider than any end-to-end bound, so they are reported here.
		{"round_p90_s", "s"},
	}
	for _, r := range ladder {
		defs = append(defs, metricDef{rateName("query_p50_us", r), "us"}, metricDef{rateName("query_p99_us", r), "us"})
	}
	defs = append(defs, []metricDef{
		{"repl_lag_p50_ms", "ms"},
		{"repl_lag_p99_ms", "ms"},
		{"watch_lag_p50_ms", "ms"},
		{"watch_lag_p99_ms", "ms"},
		{"serve.publish_cycle_ms", "ms"},
		{"serve.loopback_rps", "1/s"},
		{"serve.loopback_cpu_us", "us"},
		{"serve.alloc_per_publish_mb", "MB"},
		{"topo.generate_s", "s"},
		{"topo.mutate_s", "s"},
		{"bgp.table_s", "s"},
		{"bgp.routes_s", "s"},
		{"bgp.collect_s", "s"},
		{"asrel.infer_s", "s"},
		{"world.inputs_s", "s"},
		{"probe.trace_busy_s", "s"},
		{"probe.trace_calls", "count"},
		{"probe.signature_busy_s", "s"},
		{"probe.signature_calls", "count"},
		{"probe.probe_busy_s", "s"},
		{"probe.probe_calls", "count"},
		{"sim.share", "ratio"},
		{"scamper.probe_wall_s", "s"},
		{"scamper.alias_wall_s", "s"},
		{"scamper.alias_self_s", "s"},
		{"scamper.stopset_ratio", "ratio"},
		{"scamper.cache_hit_ratio", "ratio"},
		{"scamper.alias_pairs", "count"},
		{"scamper.alias_replayed", "count"},
		{"core.infer_s", "s"},
		{"core.infer_max_s", "s"},
		{"core.merge_s", "s"},
		{"fleet.shard_s", "s"},
		{"fleet.shard_max_s", "s"},
		{"fleet.queue_wait_s", "s"},
		{"mapdb.compile_s", "s"},
		{"mapdb.round_publish_ms", "ms"},
		{"mapdb.segment_encode_s", "s"},
		{"mapdb.segment_bytes", "bytes"},
		{"mapdb.publish_ms", "ms"},
		{"mapdb.diff_links", "count"},
		{"mapdb.lookup_ns.owner", "ns"},
		{"mapdb.lookup_ns.link", "ns"},
		{"mapdb.lookup_ns.neighbors", "ns"},
	}...)
	for _, k := range httpKinds {
		defs = append(defs, metricDef{"http.handler_us." + k, "us"})
	}
	defs = append(defs,
		metricDef{"http.loopback_us", "us"},
		metricDef{"loadgen.late_ms", "ms"},
		metricDef{"follower.apply_ms", "ms"},
		metricDef{"follower.adopt_ms", "ms"},
		metricDef{"watch.frames", "count"},
		metricDef{"watch.lagged", "count"},
		metricDef{"follower.full_syncs", "count"},
		metricDef{"follower.redials", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"trace.round_s", "s"},
		metricDef{"trace.overhead_s", "s"},
		metricDef{"defect.large_churn_failed", "count"},
	)
	for _, l := range selfLayers {
		defs = append(defs, metricDef{"self_s." + l, "s"})
	}
	return defs
}()

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// allocMark reads the process's cumulative allocation and GC pause totals.
type allocMark struct {
	totalAlloc uint64
	pauseNS    uint64
}

func markAlloc() allocMark {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return allocMark{ms.TotalAlloc, ms.PauseTotalNs}
}

// since returns MB allocated and GC pause ms since m.
func (m allocMark) since() (allocMB, pauseMS float64) {
	n := markAlloc()
	return float64(n.totalAlloc-m.totalAlloc) / (1 << 20), float64(n.pauseNS-m.pauseNS) / 1e6
}

// heapLiveMB collects garbage and reports the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
