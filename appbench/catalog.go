package main

import (
	"fmt"
	"strings"
)

// metricDef describes one reported metric: its unit, the clock it is
// measured on ("sim" = simulated time of the modelled cluster, "host"
// = the simulator's own run, "count" = a tally or ratio of tallies),
// and a note: what an end-to-end metric is, or which end-to-end metric
// a per-layer metric should move, on which workloads.
type metricDef struct {
	Name, Unit, Clock, Note string
}

// endToEnd is printed with --trace 0. Every workload reports every one.
var endToEnd = []metricDef{
	{"sim_mops", "ops/us", "sim", "completed app ops (transactions for dtx) per simulated µs of measured window; serve: goodput at 29.4 ops/µs offered"},
	{"sim_p50_us", "us", "sim", "median op latency (mid-quantile of exact per-call latencies); closed loops enter calls in flight at the horizon at their age"},
	{"sim_p99_us", "us", "sim", "p99 op latency, as sim_p50_us"},
	{"sim_p999_us", "us", "sim", "p999 op latency, as sim_p50_us (every workload has at least 10 samples beyond it)"},
	{"sim_p99_us.r50", "us", "sim", "p99 at half load: serve at 18.4 ops/µs offered; closed loops with half the client threads"},
	{"slo_rate_mops", "ops/us", "sim", "serve: highest offered rate with p99 <= 10 µs and <= 1% shed or unfinished (bisection); closed loops: measured ops within the workload's latency limit per simulated µs"},
	{"fail_frac", "ratio", "sim", "shed, unfinished or abandoned ops over attempted ops; closed loops: calls in flight at the horizon"},
	{"setup_s", "s", "host", "host seconds from nothing to the first Engine.Run of the main simulation (serve: serve.Run with an empty window), median of the run's set-ups"},
	{"alloc_mb", "MB", "host", "bytes allocated by the main simulation, set-up to teardown"},
	{"heap_inuse_mb", "MB", "host", "heap in use after a collection with the main simulation live (serve: heap live at the last collection after serve.Run)"},
}

const (
	hostCost = "host_ops_per_s, wall_s on all workloads, most on bt-ycsb-c"
	conflict = "sim_p99_us, sim_mops on ht-ycsb-a, dtx-smallbank; flat on bt-ycsb-c, serve-poisson"
	nicPath  = "sim_p50_us on bt-ycsb-c; sim_p99_us, slo_rate_mops on serve-poisson"
	dbPath   = "sim_mops on bt-ycsb-c, serve-poisson"
	serveQ   = "sim_p99_us, slo_rate_mops on serve-poisson"
)

// perLayer is printed with --trace 1. A layer absent from a workload
// reports 0 there. wall_s and host_ops_per_s are the simulator's own
// end-to-end cost, listed here because host time on a shared machine
// drifts by 10-50% between runs, more than any bound could tolerate.
var perLayer = []metricDef{
	{"wall_s", "s", "host", "end-to-end host cost, no bound: host seconds of the untraced repetition's simulations, set-up to teardown, each from a collected heap"},
	{"host_ops_per_s", "1/s", "host", "end-to-end host cost, no bound: app ops completed per host second inside Engine.Run of the untraced repetition, median over its full-load simulations (serve: measured completions per host second of serve.Run, median over the 29.4 ops/µs runs)"},
	{"sim.events", "count", "count", hostCost + " (0 on serve-poisson: the engine is inside serve.Run)"},
	{"sim.events_per_op", "count", "count", hostCost + " (0 on serve-poisson)"},
	{"sim.host_ns_per_event", "ns", "host", hostCost + " (0 on serve-poisson)"},
	{"sim.parks", "count", "count", hostCost},
	{"sim.wakes", "count", "count", hostCost},

	{"workload.setup_s", "s", "host", "setup_s on ht-ycsb-a, bt-ycsb-c; 0 on serve-poisson, dtx-smallbank"},
	{"cluster.setup_s", "s", "host", "setup_s on ht-ycsb-a, bt-ycsb-c, dtx-smallbank"},
	{"race.load_s", "s", "host", "setup_s on ht-ycsb-a"},
	{"sherman.load_s", "s", "host", "setup_s on bt-ycsb-c"},
	{"ford.load_s", "s", "host", "setup_s on dtx-smallbank"},
	{"core.setup_s", "s", "host", "setup_s on ht-ycsb-a, bt-ycsb-c, dtx-smallbank (MustNew + Spawn)"},

	{"core.cas_attempts", "count", "count", conflict},
	{"core.cas_success_ratio", "ratio", "count", conflict + " (0 without CAS)"},
	{"core.cmax_mean", "wrs", "sim", conflict},
	{"core.tmax_mean_us", "us", "sim", conflict},
	{"core.cmax_coro_mean", "coros", "sim", conflict},
	{"core.owr_max", "wrs", "sim", conflict},
	{"core.wrs_per_op", "count", "count", conflict},
	{"core.fault_abandoned", "count", "count", "fail_frac on all workloads"},

	{"rnic.wrs", "count", "count", nicPath},
	{"rnic.wrs_read", "count", "count", nicPath},
	{"rnic.wrs_write", "count", "count", nicPath},
	{"rnic.wrs_cas", "count", "count", nicPath},
	{"rnic.wrs_faa", "count", "count", nicPath},
	{"rnic.wqe_miss_rate", "ratio", "count", nicPath},
	{"rnic.mtt_miss_rate", "ratio", "count", nicPath},
	{"rnic.dma_bytes_per_wr", "B", "count", nicPath},
	{"rnic.pipe_busy_frac", "ratio", "sim", "sim_p50_us on bt-ycsb-c (0 on serve-poisson: the card is inside serve.Run)"},

	{"verbs.db_acquisitions", "count", "count", dbPath},
	{"verbs.db_contended_frac", "ratio", "count", dbPath},
	{"verbs.wrs_per_ring", "count", "count", dbPath},

	{"race.lookup_p50_us", "us", "sim", "sim_p50_us on ht-ycsb-a"},
	{"race.lookup_p99_us", "us", "sim", "sim_p99_us on ht-ycsb-a"},
	{"race.update_p50_us", "us", "sim", "sim_p50_us on ht-ycsb-a"},
	{"race.update_p99_us", "us", "sim", "sim_p99_us, sim_p999_us on ht-ycsb-a"},
	{"race.retries_per_update", "count", "count", "sim_p99_us, sim_mops on ht-ycsb-a"},

	{"sherman.lookup_p50_us", "us", "sim", "sim_p50_us on bt-ycsb-c"},
	{"sherman.lookup_p99_us", "us", "sim", "sim_p99_us on bt-ycsb-c"},
	{"sherman.spec_hit_ratio", "ratio", "count", "sim_p50_us, sim_mops on bt-ycsb-c"},
	{"sherman.wrs_per_lookup", "count", "count", "sim_mops on bt-ycsb-c"},

	{"ford.commit_ratio", "ratio", "count", "sim_mops, sim_p99_us on dtx-smallbank"},
	{"ford.wrs_per_txn", "count", "count", "sim_mops on dtx-smallbank"},

	{"serve.offered", "count", "count", "sim_mops, fail_frac on serve-poisson"},
	{"serve.admitted", "count", "count", "fail_frac on serve-poisson"},
	{"serve.shed", "count", "count", "fail_frac, slo_rate_mops on serve-poisson"},
	{"serve.completed", "count", "count", "sim_mops on serve-poisson"},
	{"serve.wait_p99_us", "us", "sim", serveQ},
	{"serve.service_p99_us", "us", "sim", serveQ},
	{"serve.qdepth_peak", "count", "count", serveQ},
	{"serve.bisect_runs", "count", "count", "wall_s on serve-poisson"},

	{"bench.inflight_at_horizon", "count", "count", "sim_p999_us, fail_frac on all workloads"},
	{"bench.trace_overhead_s", "s", "host", "none: host seconds the traced repetition took beyond the untraced one"},
}

// units indexes both catalogues by name.
func units() map[string]string {
	u := make(map[string]string, len(endToEnd)+len(perLayer))
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			u[m.Name] = m.Unit
		}
	}
	return u
}

// metricsDoc renders METRICS.md from the catalogues.
func metricsDoc() string {
	var b strings.Builder
	b.WriteString(`# appbench metrics

Generated from catalog.go: ` + "`go test -run TestMetricsDoc -update`" + ` in this directory.

Clock "sim" is simulated time of the modelled cluster: identical for one
seed, and checked to be identical across repetitions and with tracing on.
Clock "host" is the simulator's own cost on the machine running it, with
GOMAXPROCS 1 (one simulation at a time; its processes hand off one at a
time). The model is not validated against RDMA hardware, so no simulated
number carries an error figure.

Latency percentiles are Parzen mid-quantiles of exact per-call latencies:
deterministic service times put large shares of calls on one nanosecond
value, where the nearest-rank quantile would read the same for every seed.
A load point pools several simulations with distinct cluster seeds where
one simulation's figures move too much with the seed (ht-ycsb-a: 12,
bt-ycsb-c: 2, serve-poisson: 6); the first of them is the one
cross-checked and traced.
The traced run writes every span to .bench_build/appbench/spans/<workload>-seed<n>.tsv:
host spans time each layer call (ns since start), sim spans time each
app call of the main simulation's measured window (simulated ns; serve:
each measured request of the first 29.4 ops/µs run), one ID per op,
whose parent is the host span that ran the simulation.

## Workloads

Every workload runs core.Smart() (batching off) with bench.ScaleAdaptation's
time constants, and excludes its warm-up from measurement. Closed-loop
workloads also run with half their client threads for sim_p99_us.r50; the
first simulation of each is cross-checked against internal/bench's runner
(RunHT, RunBT, RunDTX) in the traced run: same op count, MOPS, p50, p99.

`)
	for _, w := range workloads {
		fmt.Fprintf(&b, "- **%s**: %s\n", w.name, w.doc)
	}
	b.WriteString(`
## End-to-end metrics (--trace 0)

The table printed above the JSON line gives each metric's sample count
(n=): calls or requests for simulated metrics, runs for serve's
slo_rate_mops, timed set-ups for setup_s, and repetitions for alloc_mb
and heap_inuse_mb.

| metric | unit | clock | definition |
|---|---|---|---|
`)
	for _, m := range endToEnd {
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", m.Name, m.Unit, m.Clock, m.Note)
	}
	b.WriteString(`
## Per-layer metrics (--trace 1)

Measured on the traced repetition's main simulation (serve: the 29.4
ops/µs run); the traced and untraced repetitions run one simulation per
closed-loop load point. A layer absent from a workload reports 0.
wall_s and host_ops_per_s are the simulator's own end-to-end cost, from
the untraced repetition. They are reported here, without a bound,
because host time on a shared machine drifts by 10-50% between runs.

| metric | unit | clock | should move |
|---|---|---|---|
`)
	for _, m := range perLayer {
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", m.Name, m.Unit, m.Clock, m.Note)
	}
	return b.String()
}
