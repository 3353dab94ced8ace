package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/telemetry"
)

// benchCtx is one repetition's context: the seed, the recorder every
// layer call goes through, and — in the traced run — the telemetry
// registry attached to the workload's main simulation.
type benchCtx struct {
	seed int64
	rec  *recorder
	reg  *telemetry.Registry
	// mainOnly runs one simulation per load point, where the workload
	// pools several: the per-layer metrics describe the main one alone.
	mainOnly bool
}

// smartOpts is the core configuration every workload runs: the full
// SMART framework, batching off, with the adaptive time constants
// scaled to millisecond windows exactly as bench.RunHT/RunBT do.
func smartOpts() core.Options { return bench.ScaleAdaptation(core.Smart()) }

// simCost is the host-side cost of one simulation.
type simCost struct {
	setup, run, wall time.Duration
	allocBytes       uint64
	ops              uint64 // app calls completed inside the engine run
}

// closedCfg describes one closed-loop simulation: a cluster, one
// compute blade running threads × 8 coroutines for the shared warm-up
// and window, and a workload that loads its data structure and
// supplies each coroutine's body.
type closedCfg struct {
	name    string
	cluster cluster.Config
	threads int
	kinds   []string // call kinds, for latency split and spans
	// main marks the simulation the per-layer metrics describe: it
	// alone gets the telemetry registry and records op spans.
	main bool
	reg  *telemetry.Registry

	// load builds the data structure and its client on the fresh cluster.
	load func(cl *cluster.Cluster)
	// body returns coroutine (ti, d)'s per-call function; it runs one
	// app call bracketed by l.begin/l.end.
	body func(ti, d int) func(c *core.Ctx, l *loop, task int)
}

// closedRun is a finished closed-loop simulation whose state is still
// in memory for the output checks; release tears it down.
type closedRun struct {
	cl   *cluster.Cluster
	rt   *core.Runtime
	loop *loop
	cost simCost
	t0   time.Time
	mem0 uint64
}

// runClosed builds and runs one closed-loop simulation. With run
// false it stops after the set-up, for a set-up probe.
func (b *benchCtx) runClosed(cfg closedCfg, run bool) *closedRun {
	runtime.GC() // the previous simulation's garbage is not this one's cost
	r := &closedRun{t0: time.Now(), mem0: totalAlloc()}
	var cl *cluster.Cluster
	b.rec.host("cluster.New", func() { cl = cluster.New(cfg.cluster) })
	cfg.load(cl)
	opts := smartOpts()
	opts.Telemetry = cfg.reg
	var rt *core.Runtime
	b.rec.host("core.MustNew", func() { rt = core.MustNew(cl.Computes[0].NIC, cl.Targets(), cfg.threads, opts) })

	l := newLoop(closedWarmup, closedMeasure, cfg.kinds...)
	if cfg.main {
		l.spans = b.rec
	}
	horizon := l.horizon
	for ti := 0; ti < cfg.threads; ti++ {
		th := rt.Thread(ti)
		for d := 0; d < rt.Options().Depth; d++ {
			body := cfg.body(ti, d)
			task := l.task()
			name := fmt.Sprintf("%s-b0-t%d-c%d", cfg.name, ti, d)
			b.rec.host("core.Thread.Spawn", func() {
				th.Spawn(name, func(c *core.Ctx) {
					for c.Now() < horizon {
						body(c, l, task)
					}
				})
			})
		}
	}
	r.cost.setup = time.Since(r.t0)
	r.cl, r.rt, r.loop = cl, rt, l
	if !run {
		return r
	}
	r.cost.run = b.rec.host("sim.Engine.Run", func() { cl.Eng.Run(horizon) })
	rt.Stop()
	rt.Collect(cfg.reg)
	r.cost.ops = l.done
	r.cost.wall = time.Since(r.t0)
	return r
}

// release stops the simulation and completes its cost record. The
// output checks and heap reading in between are not counted.
func (r *closedRun) release() simCost {
	t := time.Now()
	r.cl.Stop()
	r.cost.wall += time.Since(t)
	r.cost.allocBytes = totalAlloc() - r.mem0
	r.cl, r.rt = nil, nil
	return r.cost
}

// engineLayer returns the per-layer numbers only the owner of the
// engine can read: event counts, host time per event, and the compute
// card's requester-pipeline busy fraction.
func (r *closedRun) engineLayer() map[string]float64 {
	ev := float64(r.cl.Eng.Events())
	return map[string]float64{
		"sim.events":            ev,
		"sim.events_per_op":     ratio(ev, float64(r.loop.done)),
		"sim.host_ns_per_event": ratio(float64(r.cost.run.Nanoseconds()), ev),
		"rnic.pipe_busy_frac":   r.cl.Computes[0].NIC.Utilization(),
	}
}

// heapInuse collects garbage and returns the heap in use: with a
// simulation still in memory, that simulation's footprint.
func heapInuse() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapInuse
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
