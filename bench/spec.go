package main

import (
	"encoding/json"
	"fmt"
)

// The benchmark's contract, kept in one place: BENCHMARK.json at the
// repository root is `edgebench -print-spec` verbatim, and a test fails
// when the two drift apart. The runner reads metric names, units and
// bounds from these tables, never from the file.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	wlServeClosed  = "serve_closed"
	wlServeRaw     = "serve_raw"
	wlServeOpenEDF = "serve_open_edf"
	wlBuildZoo     = "build_zoo"
	wlTables       = "tables"
)

// runSeconds is the measuring time the driver passes as --seconds.
const runSeconds = 10

var workloads = []workloadDef{
	{wlServeClosed, "2 keep-alive connections in a closed loop on a loopback socket, index bodies, resnet18 executor, FIFO, MaxBatch 2: front door, executor and engine each do a comparable share of a request"},
	{wlServeRaw, "same closed loop on vgg16 with 21 KB raw NCHW bodies: JSON decode is about half the cost, so a front-door gain shows here and an engine gain barely does"},
	{wlServeOpenEDF, "open loop through Handler(), 135 req/s with bursts of 8, EDF + WCET admission, 3-replica quorum pool: the only workload where a queue forms and the batch window is waited on"},
	{wlBuildZoo, "no HTTP and no steady-state inference: cold, pruned and warm builds of the 13-model zoo, predictor training, plan save/load/verify, 5 proxy builds; builder, tuner and codec do all the work"},
	{wlTables, "what a reader of the paper runs: Tables 1-18 and Figures 3-4 in benchtables -all order, byte-compared with results/alltables.txt; single-image Engine.Infer across diverged engines dominates"},
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p95_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.25},
}

// tableArtifacts are the paper artifacts in `benchtables -all` order.
var tableArtifacts = []string{
	"table1", "table2", "table3", "table4", "table5", "table6", "table7",
	"figure3", "figure4",
	"table8", "table9", "table10", "table11", "table12", "table13",
	"table14", "table15", "table16", "table17", "table18",
}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		// client: the generator's own health and tails; too noisy to gate.
		{Name: "client.sched_late_ms_max", Unit: "ms", Better: "lower"},
		{Name: "client.tail_ms", Unit: "ms", Better: "lower"},
		{Name: "client.tail_pct", Unit: "%", Better: "higher"},
		{Name: "client.max_ms", Unit: "ms", Better: "lower"},

		{Name: "netserve.self_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "netserve.handler_us.index", Unit: "us", Better: "lower"},
		{Name: "netserve.handler_us.raw", Unit: "us", Better: "lower"},
		{Name: "netserve.handler_allocs.index", Unit: "count", Better: "lower"},
		{Name: "netserve.handler_allocs.raw", Unit: "count", Better: "lower"},
		{Name: "netserve.queue_wait_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "netserve.queue_wait_ms_p95", Unit: "ms", Better: "lower"},
		{Name: "netserve.batch_size_mean", Unit: "count", Better: "higher"},
		{Name: "netserve.batches", Unit: "count", Better: "lower"},
		{Name: "netserve.max_queue_depth", Unit: "count", Better: "lower"},
		{Name: "netserve.shed", Unit: "count", Better: "lower"},
		{Name: "netserve.expired", Unit: "count", Better: "lower"},
		{Name: "netserve.edf_evictions", Unit: "count", Better: "lower"},
		{Name: "netserve.wcet_shed", Unit: "count", Better: "lower"},
		{Name: "netserve.client_gone", Unit: "count", Better: "lower"},

		{Name: "serve.backend_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "serve.backend_ms_p95", Unit: "ms", Better: "lower"},
		{Name: "serve.self_us_per_batch", Unit: "us", Better: "lower"},
		{Name: "serve.quorum_overhead_frac", Unit: "frac", Better: "lower"},
		{Name: "serve.replica_runs_per_req", Unit: "count", Better: "lower"},
		{Name: "serve.degraded", Unit: "count", Better: "lower"},
		{Name: "serve.retries", Unit: "count", Better: "lower"},
		{Name: "serve.fp32_fallbacks", Unit: "count", Better: "lower"},
		{Name: "serve.quarantines", Unit: "count", Better: "lower"},
		{Name: "serve.registry_setup_ms", Unit: "ms", Better: "lower"},
		{Name: "serve.wcet_certify_ms", Unit: "ms", Better: "lower"},

		{Name: "core.timed_pass_us_per_batch", Unit: "us", Better: "lower"},
		{Name: "core.numeric_us_per_image", Unit: "us", Better: "lower"},
		{Name: "core.layer_us.conv", Unit: "us", Better: "lower"},
		{Name: "core.layer_us.fc", Unit: "us", Better: "lower"},
		{Name: "core.layer_us.other", Unit: "us", Better: "lower"},
		{Name: "core.infer_us", Unit: "us", Better: "lower"},
		{Name: "core.infer_allocs", Unit: "count", Better: "lower"},
		{Name: "core.infer_batch8_us_per_image", Unit: "us", Better: "lower"},
		{Name: "core.infer_batch8_allocs", Unit: "count", Better: "lower"},
		{Name: "core.build_cold_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "core.build_pruned_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "core.build_warm_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "core.build_proxy_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "core.plan_save_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "core.plan_load_ms_p50", Unit: "ms", Better: "lower"},
		{Name: "core.plan_bytes_mean", Unit: "bytes", Better: "lower"},
		{Name: "core.first_infer_ms", Unit: "ms", Better: "lower"},
		{Name: "core.tactics_timed", Unit: "count", Better: "lower"},
		{Name: "core.cache_hits", Unit: "count", Better: "higher"},
		{Name: "core.predicted_prunes", Unit: "count", Better: "higher"},
		{Name: "core.tune_cost_sim_s", Unit: "sim_s", Better: "lower"},

		{Name: "kernels.conv_us", Unit: "us", Better: "lower"},
		{Name: "kernels.fc_us", Unit: "us", Better: "lower"},
		{Name: "kernels.conv_mflop_per_call", Unit: "MFLOP", Better: "lower"},
		{Name: "kernels.conv_bytes_per_call", Unit: "bytes", Better: "lower"},
		{Name: "kernels.workers", Unit: "count", Better: "higher"},

		// The simulated clock, kept apart from every host-time metric: it
		// is a pinned output (a mismatch fails the op), not a measurement.
		{Name: "gpusim.sim_ms_per_op", Unit: "sim_ms", Better: "lower"},
		{Name: "gpusim.run_us", Unit: "us", Better: "lower"},
		{Name: "latpred.train_ms", Unit: "ms", Better: "lower"},
		{Name: "latpred.predict_ns", Unit: "ns", Better: "lower"},
		{Name: "planlint.verify_ms_p50", Unit: "ms", Better: "lower"},
	}
	for _, a := range tableArtifacts {
		defs = append(defs, metricDef{Name: "experiments.artifact_s." + a, Unit: "s", Better: "lower"})
	}
	defs = append(defs,
		metricDef{Name: "trace.overhead_frac", Unit: "frac", Better: "lower"},
		metricDef{Name: "trace.sum_check_frac", Unit: "frac", Better: "lower"},
	)
	return defs
}

// benchSpec is the exact shape of BENCHMARK.json.
type benchSpec struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

func currentSpec() benchSpec {
	return benchSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
}

// specJSON renders BENCHMARK.json.
func specJSON() ([]byte, error) {
	data, err := json.MarshalIndent(currentSpec(), "", "  ")
	if err != nil {
		return nil, fmt.Errorf("render spec: %w", err)
	}
	return append(data, '\n'), nil
}
