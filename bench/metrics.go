package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
)

// metricDef names one reported metric. BENCHMARK.json lists the same sets
// with their bounds; TestMetricSetsMatchBenchmarkJSON keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string
}

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run of every workload. An "op" is the workload's unit of work: a
// figures-matrix cell, a differential pair, a campaign evaluation, a
// doppeld request.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput", "1/s", "higher"},
	{"latency_ms", "ms", "lower"},
	{"cpu_ms_per_op", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are the traced pass's metrics, one or more per module. A layer
// the workload never calls reports 0.
var perLayer = []metricDef{
	{"workload.build_ms", "ms", "lower"},
	{"program.interpret_ms", "ms", "lower"},
	{"sim.newcore_ms", "ms", "lower"},
	{"sim.newcore_alloc_mb", "MB", "lower"},
	{"sim.observe_ms", "ms", "lower"},
	{"sim.cycles", "count", "lower"},
	{"sim.insts", "count", "higher"},
	{"pipeline.ns_per_cycle", "ns", "lower"},
	{"pipeline.ns_per_cycle.unsafe", "ns", "lower"},
	{"pipeline.ns_per_cycle.nda-p", "ns", "lower"},
	{"pipeline.ns_per_cycle.stt", "ns", "lower"},
	{"pipeline.ns_per_cycle.dom", "ns", "lower"},
	{"pipeline.ns_per_cycle.cleanup", "ns", "lower"},
	{"pipeline.run_ms_p50", "ms", "lower"},
	{"pipeline.run_ms_tail", "ms", "lower"},
	{"pipeline.run_tail_pct", "%", "higher"},
	{"pipeline.runs", "count", "higher"},
	{"pipeline.mispredicts", "count", "lower"},
	{"pipeline.dopp_accuracy", "ratio", "higher"},
	{"mem.l1_accesses", "count", "lower"},
	{"mem.l1_misses", "count", "lower"},
	{"mem.dram_accesses", "count", "lower"},
	{"mem.access_ns", "ns", "lower"},
	{"mem.replay_agreement", "ratio", "higher"},
	{"mem.undo_cpu_ratio", "ratio", "lower"},
	{"mem.undo_alloc_mb", "MB", "lower"},
	{"mem.undo_depth_max", "count", "lower"},
	{"predictor.lookup_ns", "ns", "lower"},
	{"checkpoint.snapshot_ms", "ms", "lower"},
	{"checkpoint.decode_ms", "ms", "lower"},
	{"checkpoint.bytes", "bytes", "lower"},
	{"engine.key_us", "us", "lower"},
	{"engine.cache_hit_ratio", "ratio", "higher"},
	{"engine.job_ms", "ms", "lower"},
	{"engine.utilization", "ratio", "higher"},
	{"engine.batch_ms", "ms", "lower"},
	{"doppeld.overhead_ms", "ms", "lower"},
	{"serve.latency_ms.hot", "ms", "lower"},
	{"serve.latency_ms.cold", "ms", "lower"},
	{"serve.latency_ms.warm", "ms", "lower"},
	{"serve.latency_ms_tail", "ms", "lower"},
	{"serve.latency_tail_pct", "%", "higher"},
	{"serve.requests", "count", "higher"},
	{"loadgen.late_ms_tail", "ms", "lower"},
	{"loadgen.backlog_max", "count", "lower"},
	{"leakcheck.build_us", "us", "lower"},
	{"leakcheck.diff_us", "us", "lower"},
	{"leakcheck.leaky_pairs", "count", "higher"},
	{"leakcheck.minimize_ms", "ms", "lower"},
	{"campaign.cells", "count", "higher"},
	{"campaign.fresh_ratio", "ratio", "higher"},
	{"campaign.dup_leak_ratio", "ratio", "lower"},
	{"campaign.sched_us", "us", "lower"},
	{"campaign.coverage_us", "us", "lower"},
	{"campaign.corpus_append_us", "us", "lower"},
	{"campaign.corpus_bytes", "bytes", "lower"},
	{"trace.overhead_ratio", "ratio", "lower"},
}

// metricName is the shape every metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints: the contract between the benchmark
// and anything that consumes its runs.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints the metric set defs from values, one "name value unit" line
// each, then the sim_digest line, then the result as the final JSON line. A
// metric missing from values is a bug in the workload and panics.
func report(w io.Writer, defs []metricDef, values map[string]float64, digest string,
	attempted, failed int, correct bool) error {
	res := result{Correct: correct, Attempted: attempted, Failed: failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			panic(fmt.Sprintf("bench: metric %s was not measured", d.Name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-32s %14.6g %s\n", d.Name, v, d.Unit)
	}
	fmt.Fprintf(w, "sim_digest %s\n", digest)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
