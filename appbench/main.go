// Command appbench is the repository's application benchmark. It
// composes the program's public layer calls itself — cluster.New,
// race/sherman/ford loading, workload.NewYCSB, core.MustNew,
// Thread.Spawn, Engine.Run, the app clients and serve.Run — and times
// each of them from outside.
//
// Usage, from the repository root (appbench/run.sh builds and runs):
//
//	appbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it repeats the workload until --seconds of host time
// have passed and reports the end-to-end metrics: simulated-time
// numbers of the modelled cluster (identical for one seed, checked
// across repetitions) and host-time numbers of the simulator (medians
// over repetitions). With --trace 1 it runs the workload once untraced
// and once traced — telemetry attached, every layer call and every app
// call recorded as a span, one closed-loop simulation per load point —
// checks that tracing left every simulated metric unchanged,
// cross-checks the main simulation against internal/bench's runner for
// it, writes the spans under .bench_build/appbench/spans, and reports
// the per-layer metrics.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
// The simulator's model is not validated against hardware, so no
// simulated number carries an error figure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                   `json:"correct"`
	Attempted uint64                 `json:"attempted"`
	Failed    uint64                 `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	samples   map[string]int         // per end-to-end metric, for the table
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("appbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Int("seconds", 15, "host seconds of repetitions to measure (-trace 0)")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || (*trace != 0 && *trace != 1) || *seconds < 1 || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "appbench: need --workload (one of %s), --seconds >= 1 and --trace 0 or 1\n", workloadNames())
		return 2
	}
	// One simulation runs at a time and its processes hand off one at a
	// time. With a single P those handoffs stay on one OS thread, which
	// makes the host-time numbers both lower and far steadier than with
	// the handoffs crossing threads.
	runtime.GOMAXPROCS(1)

	origin := time.Now()
	var rep report
	var problems []string
	var err error
	if *trace == 0 {
		rep, problems = measure(w, *seed, time.Duration(*seconds)*time.Second, origin, stderr)
	} else {
		spans := filepath.Join(".bench_build", "appbench", "spans", fmt.Sprintf("%s-seed%d.tsv", w.name, *seed))
		rep, problems, err = traced(w, *seed, origin, spans, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "appbench: %v\n", err)
			return 1
		}
	}
	for _, p := range problems {
		fmt.Fprintf(stderr, "appbench: check failed: %s\n", p)
	}
	rep.Correct = len(problems) == 0

	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-28s %14.6g %s", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
		if s, ok := rep.samples[n]; ok {
			fmt.Fprintf(stdout, "  n=%d", s)
		}
		fmt.Fprintln(stdout)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "appbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// measure repeats the workload until d has passed (at least once) and
// reports the end-to-end metrics: the simulated ones, which every
// repetition must reproduce exactly, and the medians of the host ones.
func measure(w workloadDef, seed int64, d time.Duration, origin time.Time, log io.Writer) (report, []string) {
	var outs []outcome
	for len(outs) == 0 || time.Since(origin) < d {
		o := w.run(&benchCtx{seed: seed, rec: newRecorder(origin, false)})
		fmt.Fprintf(log, "appbench: %s rep %d: setup %.3fs wall %.3fs\n", w.name, len(outs)+1, o.host["setup_s"], o.host["wall_s"])
		outs = append(outs, o)
	}
	first := outs[0]
	var problems []string
	for i, o := range outs {
		problems = append(problems, o.problems...)
		if i > 0 {
			problems = append(problems, diffSim("repetition "+fmt.Sprint(i+1), first.sim, o.sim)...)
		}
	}
	u := units()
	rep := report{Attempted: first.attempted, Failed: first.failed, Metrics: map[string]metricValue{}, samples: map[string]int{}}
	for _, m := range endToEnd {
		if v, ok := first.sim[m.Name]; ok {
			rep.Metrics[m.Name] = metricValue{v, u[m.Name]}
			rep.samples[m.Name] = first.samples[m.Name]
			continue
		}
		vals := make([]float64, len(outs))
		for i, o := range outs {
			vals[i] = o.host[m.Name]
			rep.samples[m.Name] += o.samples[m.Name]
		}
		rep.Metrics[m.Name] = metricValue{median(vals), u[m.Name]}
	}
	return rep, problems
}

// traced runs the workload's main simulations untraced and traced,
// checks that tracing changed no simulated metric, cross-checks the
// main simulation, and reports the per-layer metrics of the traced run.
func traced(w workloadDef, seed int64, origin time.Time, spansPath string, log io.Writer) (report, []string, error) {
	plain := w.run(&benchCtx{seed: seed, rec: newRecorder(origin, false), mainOnly: true})
	rec := newRecorder(origin, true)
	tr := w.run(&benchCtx{seed: seed, rec: rec, reg: telemetry.New(), mainOnly: true})

	problems := append(append([]string(nil), plain.problems...), tr.problems...)
	problems = append(problems, diffSim("traced run", plain.sim, tr.sim)...)
	if w.cross != nil {
		if got, want := plain.ref, w.cross(seed); got != want {
			problems = append(problems, fmt.Sprintf("cross-check: benchmark measured %+v, internal/bench measured %+v", got, want))
		}
	}
	if err := rec.write(spansPath); err != nil {
		return report{}, nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(log, "appbench: %d spans written to %s\n", len(rec.spans), spansPath)

	tr.layer["wall_s"] = plain.host["wall_s"]
	tr.layer["host_ops_per_s"] = plain.host["host_ops_per_s"]
	tr.layer["bench.trace_overhead_s"] = tr.host["wall_s"] - plain.host["wall_s"]
	u := units()
	rep := report{Attempted: tr.attempted, Failed: tr.failed, Metrics: map[string]metricValue{}}
	for _, m := range perLayer {
		rep.Metrics[m.Name] = metricValue{tr.layer[m.Name], u[m.Name]} // 0 where the layer is absent
	}
	return rep, problems, nil
}

// diffSim lists the simulated metrics that differ between two runs of
// one seed.
func diffSim(what string, want, got map[string]float64) []string {
	var p []string
	for _, m := range endToEnd {
		if w, ok := want[m.Name]; ok && got[m.Name] != w {
			p = append(p, fmt.Sprintf("%s changed simulated %s: %v != %v", what, m.Name, got[m.Name], w))
		}
	}
	return p
}
