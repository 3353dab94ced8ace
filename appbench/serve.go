package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/arrival"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// The serving workload: 2 runtimes × 16 threads × 4 worker coroutines,
// 2 memory blades, 4 client machines, JSQ routing, Poisson arrivals,
// 20% READ+FAA transactions. Rates are fractions of the topology's
// nominal capacity, 32 threads × 1.15 ops/µs (internal/bench's
// calibrated per-thread capacity).
const (
	serveNominal   = 36.8
	serveR50       = 18.4 // 50% of nominal: sim_p99_us.r50
	serveR80       = 29.4 // 80% of nominal: every other simulated metric
	serveP99Limit  = 10 * sim.Microsecond
	serveLossLimit = 0.01 // shed plus unfinished, share of offered
	serveBisect    = 6    // bisection halvings of the SLO rate bracket
	serveProbes    = 21   // empty-window runs timing serve.Run's set-up
	serveMeasure   = 2 * sim.Millisecond
	serveSims      = 6 // runs with distinct seeds pooled per fixed rate
)

func serveConfig(seed int64, rate float64, reg *telemetry.Registry) serve.Config {
	return serve.Config{
		Runtimes: 2, ThreadsPerRuntime: 16, CorosPerThread: 4, MemoryBlades: 2, Clients: 4,
		Arrival: &arrival.Spec{Kind: arrival.KindPoisson, Rate: rate},
		TxnFrac: 0.2, Route: serve.RouteJSQ,
		Warmup: 200 * sim.Microsecond, Measure: serveMeasure,
		Seed: seed, Opts: smartOpts(), Telemetry: reg,
	}
}

// meetsSLO is the serving latency limit: p99 within serveP99Limit and
// at most serveLossLimit of the offered requests shed or unfinished.
func meetsSLO(r serve.Result) bool {
	lost := float64(r.Offered - r.Completed)
	return r.Op.P99 <= serveP99Limit && lost <= serveLossLimit*float64(r.Offered)
}

// checkServe verifies one run's books. Arrivals are stamped at their
// due time in simulated time, so the generator is never late; the
// offered count checks it kept its rate.
func checkServe(r serve.Result, rate float64) []string {
	var p []string
	if r.Offered != r.Admitted+r.Shed {
		p = append(p, fmt.Sprintf("serve@%v: offered %d != admitted %d + shed %d", rate, r.Offered, r.Admitted, r.Shed))
	}
	if r.Completed > r.Admitted {
		p = append(p, fmt.Sprintf("serve@%v: completed %d > admitted %d", rate, r.Completed, r.Admitted))
	}
	var blades, runtimes uint64
	for _, n := range r.PerBlade {
		blades += n
	}
	for _, n := range r.PerRuntime {
		runtimes += n
	}
	if blades != r.Completed {
		p = append(p, fmt.Sprintf("serve@%v: per-blade completions sum to %d, not %d", rate, blades, r.Completed))
	}
	if runtimes != r.Admitted {
		p = append(p, fmt.Sprintf("serve@%v: per-runtime admissions sum to %d, not %d", rate, runtimes, r.Admitted))
	}
	if want := rate * float64(serveMeasure) / 1e3; math.Abs(float64(r.Offered)/want-1) > 0.03 {
		p = append(p, fmt.Sprintf("serve@%v: generator offered %d, want %.0f within 3%%", rate, r.Offered, want))
	}
	return p
}

func serveWorkload(b *benchCtx) outcome {
	var o outcome
	probes := make([]float64, serveProbes)
	for i := range probes {
		cfg := serveConfig(b.seed, serveR80, nil)
		cfg.Warmup, cfg.Measure = 1, 1 // set-up and teardown only
		runtime.GC()
		probes[i] = b.rec.host("serve.Run.setup", func() { serve.Run(cfg) }).Seconds()
	}

	var wall time.Duration
	var rates []float64 // measured completions per host second, each run at serveR80
	run := func(seed int64, rate float64, reg *telemetry.Registry) serve.Result {
		var r serve.Result
		runtime.GC()
		d := b.rec.host("serve.Run", func() { r = serve.Run(serveConfig(seed, rate, reg)) })
		wall += d
		if rate == serveR80 {
			rates = append(rates, ratio(float64(r.Completed), d.Seconds()))
		}
		o.problems = append(o.problems, checkServe(r, rate)...)
		return r
	}

	// Each fixed rate pools serveSims runs with distinct seeds; the
	// first one also carries the traced run's telemetry and is the one
	// the bisection and the per-layer metrics start from.
	var r80s, r50s []serve.Result
	var alloc, heap uint64
	for k := 0; k < serveSims; k++ {
		seed := b.seed + int64(k)*1_000_003
		var reg *telemetry.Registry
		if k == 0 {
			reg = b.reg
		}
		mem0 := totalAlloc()
		r80s = append(r80s, run(seed, serveR80, reg))
		if k == 0 {
			alloc, heap = totalAlloc()-mem0, liveHeap()
		}
		r50s = append(r50s, run(seed, serveR50, nil))
	}
	r80, r50 := r80s[0], r50s[0]

	// Bisect the highest offered rate meeting the SLO, from the bracket
	// the two fixed rates and the nominal rate give.
	lo, hi := 0.0, serveR50
	bisectRuns := 0
	switch {
	case meetsSLO(r80):
		lo, hi = serveR80, serveNominal
		bisectRuns++
		if meetsSLO(run(b.seed, serveNominal, nil)) {
			lo, hi = serveNominal, 1.5*serveNominal
		}
	case meetsSLO(r50):
		lo, hi = serveR50, serveR80
	}
	for i := 0; i < serveBisect; i++ {
		mid := (lo + hi) / 2
		bisectRuns++
		if meetsSLO(run(b.seed, mid, nil)) {
			lo = mid
		} else {
			hi = mid
		}
	}

	// Exact latencies of the fixed-rate runs, from repeats outside the
	// host timing (simulated time is identical for a seed) with core's
	// op-end trace on.
	lat80, lat50 := pooledLatencies(b, &o, r80s, serveR80, true), pooledLatencies(b, &o, r50s, serveR50, false)
	var offered, done, shed uint64
	for _, r := range r80s {
		offered, done, shed = offered+r.Offered, done+r.Completed, shed+r.Shed
	}
	o.attempted, o.failed = offered, shed
	o.sim = map[string]float64{
		"sim_mops":       float64(done) / (float64(serveSims) * float64(serveMeasure) / 1e3),
		"sim_p50_us":     nsToUS(quantile(lat80, 0.50)),
		"sim_p99_us":     nsToUS(quantile(lat80, 0.99)),
		"sim_p999_us":    nsToUS(quantile(lat80, 0.999)),
		"sim_p99_us.r50": nsToUS(quantile(lat50, 0.99)),
		"slo_rate_mops":  lo,
		"fail_frac":      ratio(float64(offered-done), float64(offered)),
	}
	o.samples = map[string]int{
		"sim_mops": int(done), "sim_p50_us": len(lat80), "sim_p99_us": len(lat80), "sim_p999_us": len(lat80),
		"sim_p99_us.r50": len(lat50), "slo_rate_mops": 2 + bisectRuns, "fail_frac": int(offered),
		"setup_s": len(probes), "alloc_mb": 1, "heap_inuse_mb": 1,
	}
	o.host = map[string]float64{
		"setup_s":        median(probes),
		"wall_s":         wall.Seconds(),
		"host_ops_per_s": median(rates),
		"alloc_mb":       float64(alloc) / 1e6,
		"heap_inuse_mb":  float64(heap) / 1e6,
	}
	o.layer = map[string]float64{
		"serve.offered":             float64(r80.Offered),
		"serve.admitted":            float64(r80.Admitted),
		"serve.shed":                float64(r80.Shed),
		"serve.completed":           float64(r80.Completed),
		"serve.wait_p99_us":         us(r80.Wait.P99),
		"serve.service_p99_us":      us(r80.Service.P99),
		"serve.qdepth_peak":         float64(r80.QueueDepthPeak),
		"serve.bisect_runs":         float64(bisectRuns),
		"bench.inflight_at_horizon": float64(r80.Admitted - r80.Completed),
	}
	if b.reg != nil {
		for k, v := range harvest(b.reg, "r0/", "r1/") {
			o.layer[k] = v
		}
	}
	return o
}

// pooledLatencies returns the exact latencies of every measured request
// of the runs, sorted; runs[k] used seed b.seed + k·1000003. With
// spans, the requests of runs[0] are recorded as sim spans.
func pooledLatencies(b *benchCtx, o *outcome, runs []serve.Result, rate float64, spans bool) []sim.Time {
	var all []sim.Time
	for k, want := range runs {
		var rec *recorder
		if spans && k == 0 {
			rec = b.rec
		}
		lat, err := opLatencies(b, b.seed+int64(k)*1_000_003, want, rate, rec)
		if err != nil {
			o.problems = append(o.problems, err.Error())
		}
		all = append(all, lat...)
	}
	if err := tailSamples(len(all)); err != nil {
		o.problems = append(o.problems, fmt.Sprintf("serve@%v: %v", rate, err))
	}
	sortTimes(all)
	return all
}

// opLatencies re-runs serve.Run at rate with a telemetry trace and
// returns the exact latency of every measured request, sorted. serve
// reports percentiles in stats.Hist's 7% buckets only; core's op-end
// event carries each op's exact arrival-to-completion latency. want is
// the untraced run at the same rate: the recovered samples must be
// exactly its measured requests. spans, when set, records each one.
func opLatencies(b *benchCtx, seed int64, want serve.Result, rate float64, spans *recorder) ([]sim.Time, error) {
	reg := telemetry.New()
	tr := reg.EnableTrace(1 << 17)
	var got serve.Result
	b.rec.host("serve.Run.latency", func() { got = serve.Run(serveConfig(seed, rate, reg)) })
	parent := b.rec.last
	if tr.Total() > uint64(tr.Cap()) {
		return nil, fmt.Errorf("serve@%v: op-end trace overflowed its %d events", rate, tr.Cap())
	}
	warmup := serveConfig(seed, rate, nil).Warmup
	var lat []sim.Time
	h := stats.NewHist()
	for _, e := range tr.Events() {
		if e.Kind != "op-end" {
			continue
		}
		f := strings.Fields(e.Detail) // "t<i> lat=<sim.Time> retries=<n>"
		if len(f) != 3 || !strings.HasPrefix(f[1], "lat=") {
			return nil, fmt.Errorf("serve@%v: unexpected op-end event %q", rate, e.Detail)
		}
		d, err := parseSimTime(strings.TrimPrefix(f[1], "lat="))
		if err != nil {
			return nil, fmt.Errorf("serve@%v: %w", rate, err)
		}
		if e.At-d >= warmup { // serve measures requests that arrived after the warm-up
			lat = append(lat, d)
			h.Add(d)
			if spans != nil {
				spans.op("serve.request", parent, e.At-d, e.At)
			}
		}
	}
	if got.Op != want.Op || h.Summary() != want.Op {
		return nil, fmt.Errorf("serve@%v: op-end latencies %+v do not reproduce serve's %+v", rate, h.Summary(), want.Op)
	}
	sortTimes(lat)
	return lat, nil
}

// parseSimTime inverts sim.Time.String.
func parseSimTime(s string) (sim.Time, error) {
	units := []struct {
		suffix string
		scale  float64
	}{{"ns", 1}, {"us", 1e3}, {"ms", 1e6}, {"s", 1e9}}
	for _, u := range units {
		if v, ok := strings.CutSuffix(s, u.suffix); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return 0, fmt.Errorf("bad latency %q", s)
			}
			return sim.Time(math.Round(f * u.scale)), nil
		}
	}
	return 0, fmt.Errorf("bad latency %q", s)
}

// liveHeap is the heap the last garbage collection found live: for
// serve.Run, which owns its simulation, the nearest outside view of
// the memory a run holds.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
