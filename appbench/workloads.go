package main

import (
	"maps"
	"time"

	"repro/internal/sim"
)

// outcome is one repetition of a workload.
type outcome struct {
	sim     map[string]float64 // simulated time: identical for one seed
	host    map[string]float64 // host time and memory of this repetition
	samples map[string]int     // samples behind each sim and host metric
	layer   map[string]float64 // per-layer metrics (complete in the traced run)

	attempted, failed uint64
	problems          []string
	ref               crossRef // main simulation, for the bench.Run* cross-check
}

// workloadDef is one benchmark workload.
type workloadDef struct {
	name, doc string
	run       func(b *benchCtx) outcome
	// cross re-runs the main simulation through internal/bench, when
	// that package has a runner for it.
	cross func(seed int64) crossRef
}

var workloads = []workloadDef{
	{
		name: "ht-ycsb-a",
		doc: "RACE hash table (race.Create + LoadDirect, 200k keys) on 2 memory blades; 1 compute blade x 48 threads x 8 " +
			"coroutines closed loop, YCSB-A (50% updates) Zipf 0.99. 5 ms warm-up, 4 ms window; 12 simulations pooled per " +
			"load point. Latency limit for slo_rate_mops: 1 ms. Checks: every Lookup and every key's GetDirect value is the " +
			"loaded one or one an Update wrote. Some calls that start in the first 0.1 ms are still in flight at the horizon, so " +
			"sim_p999_us is set by their ages; sim_p50_us falls in a gap between latency modes and moves between " +
			"about 21 and 24 µs with the seed.",
		run:   closedSpec{newApp: newHT, threads: 48, limit: sim.Millisecond, sims: 12}.run,
		cross: func(seed int64) crossRef { return htCross(seed, 48) },
	},
	{
		name: "bt-ycsb-c",
		doc: "Sherman B+tree (sherman.BulkLoad, 200k keys, SMART-BT: speculative lookup + SMART) on 1 memory blade; " +
			"1 compute blade x 24 threads x 8 coroutines closed loop, YCSB-C (read-only) Zipf 0.99. 5 ms warm-up, 4 ms window; " +
			"2 simulations pooled per load point. " +
			"Latency limit: 10 µs. Checks: every LookupSpec returns the loaded value.",
		run:   closedSpec{newApp: newBT, threads: 24, limit: 10 * sim.Microsecond, sims: 2}.run,
		cross: func(seed int64) crossRef { return btCross(seed, 24) },
	},
	{
		name: "serve-poisson",
		doc: "serve.Run open loop: 2 runtimes x 16 threads x 4 coroutines, 2 memory blades, 4 clients, JSQ routing, Poisson " +
			"arrivals, 20% READ+FAA transactions; 200 µs warm-up, 2 ms window, 6 runs pooled per fixed rate. Fixed rates 18.4 and 29.4 ops/µs (50% and " +
			"80% of 32 threads x 1.15 ops/µs); SLO p99 <= 10 µs with <= 1% shed or unfinished, rate bisected over 6 halvings. " +
			"Exact latencies come from core's op-end trace events on a repeat of each fixed-rate run, checked to reproduce " +
			"serve's own histogram. Checks: offered = admitted + shed, completed <= admitted, per-blade and per-runtime counts " +
			"sum up, offered within 3% of rate x window (arrivals are stamped at their due time, so the generator is never late). " +
			"Requests in flight at the horizon count in fail_frac; serve.Run does not expose their ages, so they are not in the tail.",
		run: serveWorkload,
	},
	{
		name: "dtx-smallbank",
		doc: "FORD SmallBank (ford.NewSmallBank + Load, 100k accounts) on 2 NVM memory blades; 1 compute blade x 16 " +
			"threads x 8 coroutines closed loop. 5 ms warm-up, 4 ms window. Latency limit: 100 µs. Checks: every RunOne " +
			"returns committed, and the commits equal core's op count.",
		run:   closedSpec{newApp: newDTX, threads: 16, limit: 100 * sim.Microsecond, sims: 1, probes: 8}.run,
		cross: func(seed int64) crossRef { return dtxCross(seed, 16) },
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// closedSpec is a closed-loop workload: an app run at its full client
// count (the main load point, which every metric but sim_p99_us.r50
// describes) and with half the client threads (sim_p99_us.r50). Each
// load point pools simulations with distinct cluster seeds; the first
// one is the simulation bench.Run* reproduces, and the per-layer
// metrics describe it.
type closedSpec struct {
	newApp  func(ycsbPool) app
	threads int
	limit   sim.Time // latency limit slo_rate_mops counts calls against
	sims    int      // simulations pooled per load point
	probes  int      // extra set-ups (built, torn down unrun) for setup_s
}

func (w closedSpec) run(b *benchCtx) outcome {
	var o outcome
	gens := ycsbPool{}
	var full, half pooled
	var wall time.Duration
	var setups, rates []float64
	sims := w.sims
	if b.mainOnly {
		sims = 1
	}
	for k := 0; k < 2*sims; k++ {
		threads, pool := w.threads, &full
		if k >= sims {
			threads, pool = w.threads/2, &half
		}
		a := w.newApp(gens)
		cfg := a.config(b, threads, b.seed+int64(k)*1_000_003)
		var before map[string]int64
		if k == 0 {
			cfg.main, cfg.reg = true, b.reg
			before = maps.Clone(b.rec.total)
		}
		r := b.runClosed(cfg, true)
		pool.add(r.loop)
		failed, problems := a.check(r)
		o.failed += failed
		o.problems = append(o.problems, problems...)
		if k == 0 {
			o.ref = r.loop.crossRef()
			o.layer = a.layer(r)
			maps.Copy(o.layer, r.engineLayer())
			if b.reg != nil {
				maps.Copy(o.layer, harvest(b.reg, ""))
			}
			o.layer["bench.inflight_at_horizon"] = float64(len(r.loop.inflight()))
			o.host = map[string]float64{"heap_inuse_mb": float64(heapInuse()) / 1e6}
		}
		cost := r.release()
		wall += cost.wall
		if pool == &full {
			rates = append(rates, ratio(float64(cost.ops), cost.run.Seconds()))
		}
		if k == 0 {
			setupLayers(o.layer, b.rec, before)
			setups = append(setups, cost.setup.Seconds())
			o.host["alloc_mb"] = float64(cost.allocBytes) / 1e6
		}
	}
	for i := 0; i < w.probes; i++ {
		a := w.newApp(gens)
		setups = append(setups, b.runClosed(a.config(b, w.threads, b.seed), false).release().setup.Seconds())
	}

	sum, err := full.summarize(w.limit)
	if err != nil {
		o.problems = append(o.problems, err.Error())
	}
	sumHalf, err := half.summarize(w.limit)
	if err != nil {
		o.problems = append(o.problems, "half load: "+err.Error())
	}
	o.attempted = uint64(sum.samples)
	o.sim = map[string]float64{
		"sim_mops":       sum.mops,
		"sim_p50_us":     sum.p50,
		"sim_p99_us":     sum.p99,
		"sim_p999_us":    sum.p999,
		"sim_p99_us.r50": sumHalf.p99,
		"slo_rate_mops":  sum.sloMops,
		"fail_frac":      sum.failFrac,
	}
	o.host["setup_s"] = median(setups)
	o.host["wall_s"] = wall.Seconds()
	o.host["host_ops_per_s"] = median(rates)
	o.samples = map[string]int{
		"sim_mops": int(sum.ops), "sim_p50_us": sum.samples, "sim_p99_us": sum.samples, "sim_p999_us": sum.samples,
		"sim_p99_us.r50": sumHalf.samples, "slo_rate_mops": int(sum.ops), "fail_frac": sum.samples,
		"setup_s": len(setups), "alloc_mb": 1, "heap_inuse_mb": 1,
	}
	return o
}

// setupLayers adds the per-layer set-up times of the calls made since
// the before snapshot of the recorder's totals.
func setupLayers(layer map[string]float64, rec *recorder, before map[string]int64) {
	since := func(names ...string) float64 {
		var ns int64
		for _, n := range names {
			ns += rec.total[n] - before[n]
		}
		return float64(ns) / 1e9
	}
	layer["workload.setup_s"] = since("workload.NewYCSB")
	layer["cluster.setup_s"] = since("cluster.New")
	layer["race.load_s"] = since("race.Create", "race.LoadDirect")
	layer["sherman.load_s"] = since("sherman.BulkLoad")
	layer["ford.load_s"] = since("ford.NewSmallBank", "ford.Load")
	layer["core.setup_s"] = since("core.MustNew", "core.Thread.Spawn")
}
