package main

// The benchmark's workloads and metrics. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds
// (TestBenchmarkJSONMatchesSpec keeps the two in step); this file adds what the JSON
// schema has no room for: each workload's route, and which end-to-end
// metric each layer metric should move, on which workload.

// workloadSpec is one workload. Every loop is closed and has one
// connection: it sends its next request when the previous response has
// been read, so the server is idle between requests.
type workloadSpec struct {
	Name  string
	Route string
	Why   string
}

// workloads are the workloads BENCHMARK.json lists.
var workloads = []workloadSpec{
	{"serve-batch", "/v1/classify/batch",
		"closed loop, 1 conn, POST /v1/classify/batch of 64 items: 69.5% sealed hits, 30% warm memo hits, 0.5% first-seen k=4, 25% in-batch duplicates: dedup, multi-probe, pooled encoder"},
	{"trees-cold", "/v1/classify",
		"closed loop, 1 conn, fresh server, mode=trees on All(2)@2, All(3)@1 and every k=3 mask orbit at 2 and 1 levels, seeded order: round-elimination compute"},
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end metrics only
	Moves  []string
	On     []string
}

var (
	serveLoad = []string{"serve-batch"}
	allLoads  = []string{"serve-batch", "trees-cold"}
)

var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, On: allLoads},
	{Name: "verdicts_per_cpu_s", Unit: "1/s", Better: "higher", Bound: 0.25, On: allLoads},
	{Name: "cpu_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: allLoads},
	{Name: "cpu_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, On: allLoads},
	{Name: "slowest_cpu_s", Unit: "s", Better: "lower", Bound: 0.25, On: allLoads},
	{Name: "alloc_kib_per_verdict", Unit: "KiB", Better: "lower", Bound: 0.1, On: allLoads},
	{Name: "rss_peak_mib", Unit: "MiB", Better: "lower", Bound: 0.25, On: allLoads},
}

var perLayer = []metricSpec{
	{Name: "service.handler_ms_mean", Unit: "ms", Better: "lower", Moves: []string{"cpu_p50_ms", "verdicts_per_cpu_s"}, On: serveLoad},
	{Name: "service.transport_ms_mean", Unit: "ms", Better: "lower", Moves: []string{"cpu_p50_ms"}, On: serveLoad},
	{Name: "service.wrap_us", Unit: "us", Better: "lower", Moves: []string{"cpu_p50_ms", "verdicts_per_cpu_s"}, On: serveLoad},
	{Name: "service.wrap_allocs", Unit: "count", Better: "lower", Moves: []string{"alloc_kib_per_verdict"}, On: serveLoad},
	{Name: "service.encode_us", Unit: "us", Better: "lower", Moves: []string{"cpu_p50_ms", "verdicts_per_cpu_s"}, On: serveLoad},
	{Name: "service.encode_allocs", Unit: "count", Better: "lower", Moves: []string{"alloc_kib_per_verdict"}, On: serveLoad},
	{Name: "service.batch_us_per_item", Unit: "us", Better: "lower", Moves: []string{"verdicts_per_cpu_s"}, On: serveLoad},
	{Name: "service.batch_dedup_frac", Unit: "frac", Better: "higher", Moves: []string{"verdicts_per_cpu_s"}, On: serveLoad},
	{Name: "service.coalesced", Unit: "count", Better: "higher", Moves: []string{"cpu_p99_ms"}, On: serveLoad},
	{Name: "service.errors", Unit: "count", Better: "lower", Moves: []string{"verdicts_per_cpu_s"}, On: allLoads},
	{Name: "lcl.decode_us", Unit: "us", Better: "lower", Moves: []string{"cpu_p50_ms"}, On: serveLoad},
	{Name: "lcl.decode_allocs", Unit: "count", Better: "lower", Moves: []string{"alloc_kib_per_verdict"}, On: serveLoad},
	{Name: "enumerate.fast_fp_us", Unit: "us", Better: "lower", Moves: []string{"verdicts_per_cpu_s"}, On: serveLoad},
	{Name: "enumerate.fast_fp_accept_frac", Unit: "frac", Better: "higher", Moves: []string{"verdicts_per_cpu_s"}, On: serveLoad},
	{Name: "canon.canonicalize_us", Unit: "us", Better: "lower", Moves: []string{"cpu_p50_ms", "verdicts_per_cpu_s"}, On: serveLoad},
	{Name: "canon.canonicalize_allocs", Unit: "count", Better: "lower", Moves: []string{"alloc_kib_per_verdict"}, On: serveLoad},
	{Name: "canon.calls_per_verdict", Unit: "frac", Better: "lower", Moves: []string{"verdicts_per_cpu_s"}, On: serveLoad},
	{Name: "canon.inexact_frac", Unit: "frac", Better: "lower", Moves: []string{"verdicts_per_cpu_s"}, On: serveLoad},
	{Name: "store.sealed_get_ns", Unit: "ns", Better: "lower", Moves: []string{"cpu_p50_ms"}, On: serveLoad},
	{Name: "store.sealed_hit_frac", Unit: "frac", Better: "higher", Moves: []string{"cpu_p50_ms"}, On: serveLoad},
	{Name: "memo.get_ns", Unit: "ns", Better: "lower", Moves: []string{"cpu_p99_ms"}, On: serveLoad},
	{Name: "memo.put_ns", Unit: "ns", Better: "lower", Moves: []string{"cpu_p99_ms"}, On: serveLoad},
	{Name: "memo.hit_frac", Unit: "frac", Better: "higher", Moves: []string{"cpu_p99_ms"}, On: serveLoad},
	{Name: "memo.evictions", Unit: "count", Better: "lower", Moves: []string{"cpu_p99_ms"}, On: serveLoad},
	{Name: "classify.cycles_us", Unit: "us", Better: "lower", Moves: []string{"cpu_p99_ms", "slowest_cpu_s"}, On: serveLoad},
	{Name: "re.apply_r_s", Unit: "s", Better: "lower", Moves: []string{"verdicts_per_cpu_s", "slowest_cpu_s"}, On: []string{"trees-cold"}},
	{Name: "re.apply_rbar_s", Unit: "s", Better: "lower", Moves: []string{"verdicts_per_cpu_s", "slowest_cpu_s"}, On: []string{"trees-cold"}},
	{Name: "re.zero_round_s", Unit: "s", Better: "lower", Moves: []string{"verdicts_per_cpu_s", "slowest_cpu_s"}, On: []string{"trees-cold"}},
	{Name: "re.canonical_s", Unit: "s", Better: "lower", Moves: []string{"verdicts_per_cpu_s", "slowest_cpu_s"}, On: []string{"trees-cold"}},
	{Name: "re.allocs_per_verdict", Unit: "count", Better: "lower", Moves: []string{"alloc_kib_per_verdict", "verdicts_per_cpu_s"}, On: []string{"trees-cold"}},
	{Name: "re.alphabet_max", Unit: "count", Better: "lower", On: []string{"trees-cold"}},
	{Name: "re.levels_total", Unit: "count", Better: "lower", On: []string{"trees-cold"}},
	{Name: "core.classify_trees_s", Unit: "s", Better: "lower", Moves: []string{"verdicts_per_cpu_s", "slowest_cpu_s"}, On: []string{"trees-cold"}},
	{Name: "go.gc_cycles_per_kverdict", Unit: "count", Better: "lower", Moves: []string{"cpu_p99_ms", "alloc_kib_per_verdict"}, On: serveLoad},
	{Name: "go.gc_pause_p99_ms", Unit: "ms", Better: "lower", Moves: []string{"cpu_p99_ms"}, On: serveLoad},
	{Name: "bench.trace_overhead_frac", Unit: "frac", Better: "lower", On: allLoads},
}

// workloadByName returns the named workload.
func workloadByName(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}
