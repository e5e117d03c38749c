package main

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// metricDef declares a reported metric. BENCHMARK.json lists the same
// names, units and directions (metrics_test.go keeps them in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd is printed by untraced runs, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"p50_ms", "ms", "lower"},
	{"tail_ms", "ms", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer is printed by traced runs, on every workload; a layer a
// workload does not reach reads 0 there.
var perLayer = []metricDef{
	{"cminor.parse_ms", "ms", "lower"},
	{"cminor.check_ms", "ms", "lower"},
	{"cminor.parse_kloc_per_s", "kloc/s", "higher"},
	{"cminor.files_reparsed_frac", "frac", "lower"},
	{"ir.lower_ms", "ms", "lower"},
	{"ir.lower_alloc_mb", "MB", "lower"},
	{"ir.funcs_lowered", "count", "lower"},
	{"ir.reachable_frac", "frac", "higher"},
	{"callgraph.ms", "ms", "lower"},
	{"callgraph.direct_frac", "frac", "higher"},
	{"contexts.ms", "ms", "lower"},
	{"contexts.count", "count", "lower"},
	{"pointer.ms", "ms", "lower"},
	{"pointer.alloc_mb", "MB", "lower"},
	{"pointer.pts_entries", "count", "lower"},
	{"pointer.heap_edges", "count", "lower"},
	{"pointer.rounds", "count", "lower"},
	{"core.relations_ms", "ms", "lower"},
	{"core.pairs_ms", "ms", "lower"},
	{"core.post_ms", "ms", "lower"},
	{"core.region_pairs", "count", "lower"},
	{"core.ipairs", "count", "lower"},
	{"core.pipeline_overhead_ms", "ms", "lower"},
	{"bdd.pairs_ms", "ms", "lower"},
	{"bdd.peak_nodes", "count", "lower"},
	{"bdd.cache_hit_frac", "frac", "higher"},
	{"datalog.explain_ms", "ms", "lower"},
	{"service.admission_wait_mean_ms", "ms", "lower"},
	{"service.admission_wait_max_ms", "ms", "lower"},
	{"service.cache_hit_frac", "frac", "higher"},
	{"service.coalesced_frac", "frac", "higher"},
	{"service.snapshot_hit_frac", "frac", "higher"},
	{"service.encode_ms", "ms", "lower"},
	{"service.transport_ms", "ms", "lower"},
	{"service.overloads", "count", "lower"},
	{"service.cold_p50_ms", "ms", "lower"},
	{"service.hit_p50_ms", "ms", "lower"},
	{"service.delta_p50_ms", "ms", "lower"},
	{"service.query_p50_ms", "ms", "lower"},
	{"service.explain_p50_ms", "ms", "lower"},
	{"service.bdd_p50_ms", "ms", "lower"},
	{"loadgen.lateness_p99_ms", "ms", "lower"},
	{"runtime.gc_cpu_frac", "frac", "lower"},
	{"runtime.stw_pauses_per_op", "count", "lower"},
	{"runtime.stw_ms_per_op", "ms", "lower"},
	{"trace.ops_per_s", "1/s", "higher"},
	{"trace.overhead_frac", "frac", "lower"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit
		}
	}
	panic("perfbench: undeclared metric " + name)
}

// layers maps a span name to the module layer whose time it is. Spans
// of the pipeline come from the phase observer (closed-loop workloads)
// or the service's wire trace (serve_mixed).
func layerOf(span string) string {
	switch span {
	case "phase:parse":
		return "cminor.parse"
	case "phase:check":
		return "cminor.check"
	case "phase:lower":
		return "ir.lower"
	case "phase:callgraph":
		return "callgraph"
	case "phase:contexts":
		return "contexts"
	case "phase:pointer", "pointer.solve":
		return "pointer"
	case "phase:regions", "phase:ownership", "phase:access":
		return "core.relations"
	case "phase:pairs":
		return "core.pairs"
	case "phase:post":
		return "core.post"
	case "pipeline":
		return "core.pipeline"
	case "service.admission_wait":
		return "service.admission"
	case "service.coalesce_wait":
		return "service.coalesce"
	case "service.encode":
		return "service.encode"
	case "http.request", "service.request", "service.analysis":
		return "service"
	}
	switch {
	case strings.HasPrefix(span, "pairs.stratum:"):
		return "bdd"
	case strings.HasPrefix(span, "datalog."), strings.HasPrefix(span, "explain."), strings.HasPrefix(span, "rule:"),
		span == "round", span == "query.pair":
		return "datalog"
	case strings.HasPrefix(span, "op:"):
		return "client"
	}
	return "other"
}

// layerSelf sums span self time per layer, and the duration of the root
// (operation) spans.
func layerSelf(spans []span) (map[string]time.Duration, time.Duration) {
	self := selfTimes(spans)
	out := make(map[string]time.Duration)
	var total time.Duration
	for _, s := range spans {
		out[layerOf(s.Name)] += self[s.ID]
		if s.Parent == 0 {
			total += s.dur()
		}
	}
	return out, total
}

// shareLine renders each layer's share of operation time, largest
// first, with the front-end (cminor + ir) and solver (contexts, pointer,
// core relations and pairs) sums the workload design is judged by.
func shareLine(self map[string]time.Duration, total time.Duration) string {
	if total <= 0 {
		return "layer shares: none"
	}
	type kv struct {
		k string
		v float64
	}
	var kvs []kv
	for k, v := range self {
		kvs = append(kvs, kv{k, float64(v) / float64(total)})
	}
	sort.Slice(kvs, func(i, j int) bool { return kvs[i].v > kvs[j].v || kvs[i].v == kvs[j].v && kvs[i].k < kvs[j].k })
	share := func(names ...string) float64 {
		var d time.Duration
		for _, n := range names {
			d += self[n]
		}
		return float64(d) / float64(total)
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "layer shares of operation time: frontend(cminor+ir)=%.4f solver(contexts+pointer+core.relations+core.pairs)=%.4f |",
		share("cminor.parse", "cminor.check", "ir.lower"),
		share("contexts", "pointer", "core.relations", "core.pairs"))
	for _, e := range kvs {
		fmt.Fprintf(&sb, " %s=%.4f", e.k, e.v)
	}
	return sb.String()
}
