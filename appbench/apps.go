package main

import (
	"fmt"
	"math/rand"

	"repro/internal/bench"
	"repro/internal/blade"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ford"
	"repro/internal/race"
	"repro/internal/sherman"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Shared windows of the closed-loop workloads: bench.RunHT/RunBT/RunDTX
// defaults, so the cross-checks compare identical runs.
const (
	closedWarmup  = 5 * sim.Millisecond
	closedMeasure = 4 * sim.Millisecond
	zipfTheta     = 0.99
)

// app is one closed-loop application workload. A fresh app is built
// for every simulation; it owns the data structure and the state its
// output checks need.
type app interface {
	// config describes one simulation; seed is its cluster seed.
	config(b *benchCtx, threads int, seed int64) closedCfg
	// check verifies the outputs once the engine has stopped and
	// returns the number of failed calls plus any broken invariant.
	check(r *closedRun) (failed uint64, problems []string)
	// layer returns the app layer's per-layer metrics of a run.
	layer(r *closedRun) map[string]float64
}

// ycsbPool hands each coroutine (thread, depth) its YCSB generator. A
// generator is built on first use by one workload.NewYCSB call, seeded
// as bench.RunHT/RunBT seed it, and reused — its stream continuing —
// by the repetition's later simulations, which would otherwise repeat
// the generator set-up that dominates theirs.
type ycsbPool map[[2]int]*workload.YCSB

func (p ycsbPool) get(b *benchCtx, ti, d int, seed int64, keys uint64, mix workload.Mix) *workload.YCSB {
	g, ok := p[[2]int{ti, d}]
	if !ok {
		b.rec.host("workload.NewYCSB", func() {
			g = workload.NewYCSB(rand.New(rand.NewSource(seed)), keys, zipfTheta, mix)
		})
		p[[2]int{ti, d}] = g
	}
	return g
}

// crossRef is what a bench.Run* call reports for the same config.
type crossRef struct {
	ops      uint64
	mops     float64
	p50, p99 sim.Time
}

func (l *loop) crossRef() crossRef {
	s := l.hist.Summary()
	return crossRef{ops: uint64(len(l.lat)), mops: float64(len(l.lat)) / (float64(l.horizon-l.warmup) / 1e3), p50: s.P50, p99: s.P99}
}

// ---- ht-ycsb-a: RACE hash table, YCSB-A (50% updates) ----

const htKeys = 200_000

type htKV struct{ key, val uint64 }

type htApp struct {
	gens    ycsbPool
	tbl     *race.Table
	client  *race.Client
	written map[htKV]bool // every (key, value) an Update was issued with
	bad     uint64        // lookups that missed or returned a value never written
}

func newHT(gens ycsbPool) app { return &htApp{gens: gens, written: make(map[htKV]bool)} }

// htBladeCapacity and htGroups repeat bench.RunHT's sizing.
func htBladeCapacity(keys uint64, blades int) uint64 {
	per := keys * 64 / uint64(blades)
	if per < (64 << 20) {
		per = 64 << 20
	}
	return per + (64 << 20)
}

func htGroups(keys uint64) int {
	g := int(float64(keys/8) / (14 * 0.6))
	if g < 64 {
		g = 64
	}
	return g
}

func (a *htApp) config(b *benchCtx, threads int, seed int64) closedCfg {
	return closedCfg{
		name: "ht",
		cluster: cluster.Config{ComputeBlades: 1, MemoryBlades: 2,
			BladeCapacity: htBladeCapacity(htKeys, 2), Seed: seed},
		threads: threads,
		kinds:   []string{"race.Lookup", "race.Update"},
		load: func(cl *cluster.Cluster) {
			b.rec.host("race.Create", func() {
				a.tbl = race.Create(cl.Targets(), race.Config{Groups: htGroups(htKeys), InitialDepth: 3, MaxDepth: 8})
			})
			b.rec.host("race.LoadDirect", func() {
				for k := uint64(0); k < htKeys; k++ {
					a.tbl.LoadDirect(k, k)
				}
			})
			a.client = race.NewClient(a.tbl)
		},
		body: func(ti, d int) func(*core.Ctx, *loop, int) {
			gen := a.gens.get(b, ti, d, b.seed+int64(ti)*1_009+int64(d)*13+1, htKeys, workload.WriteHeavy)
			return func(c *core.Ctx, l *loop, task int) {
				op, key := gen.Next()
				start := c.Now()
				l.begin(task, start)
				if op == workload.Update {
					a.written[htKV{key, uint64(start)}] = true
					retries := a.client.Update(c, key, uint64(start))
					l.end(task, 1, c.Now(), retries)
					return
				}
				v, ok := a.client.Lookup(c, key)
				if !ok || (v != key && !a.written[htKV{key, v}]) {
					a.bad++
				}
				l.end(task, 0, c.Now(), 0)
			}
		},
	}
}

func (a *htApp) check(*closedRun) (uint64, []string) {
	var problems []string
	if a.bad > 0 {
		problems = append(problems, fmt.Sprintf("ht: %d lookups missed or read a value never written", a.bad))
	}
	var lost int
	for k := uint64(0); k < htKeys; k++ {
		v, ok := a.tbl.GetDirect(k)
		if !ok || (v != k && !a.written[htKV{k, v}]) {
			lost++
		}
	}
	if lost > 0 {
		problems = append(problems, fmt.Sprintf("ht: GetDirect: %d keys missing or holding a value never written", lost))
	}
	return a.bad, problems
}

func (a *htApp) layer(r *closedRun) map[string]float64 {
	l := r.loop
	return map[string]float64{
		"race.lookup_p50_us":      l.kindQuantile(0, 0.50),
		"race.lookup_p99_us":      l.kindQuantile(0, 0.99),
		"race.update_p50_us":      l.kindQuantile(1, 0.50),
		"race.update_p99_us":      l.kindQuantile(1, 0.99),
		"race.retries_per_update": ratio(float64(l.retries), float64(len(l.byKind[1]))),
	}
}

func htCross(seed int64, threads int) crossRef {
	r := bench.RunHT(bench.HTConfig{Opts: core.Smart(), ComputeBlades: 1, ThreadsPerBlade: threads,
		MemoryBlades: 2, Keys: htKeys, Theta: zipfTheta, Mix: workload.WriteHeavy,
		Warmup: closedWarmup, Measure: closedMeasure, Seed: seed})
	return crossRef{ops: r.Ops, mops: r.MOPS, p50: r.Median, p99: r.P99}
}

// ---- bt-ycsb-c: Sherman B+tree (SMART-BT), YCSB-C (read-only) ----

const btKeys = 200_000

type btApp struct {
	gens   ycsbPool
	tree   *sherman.Tree
	client *sherman.Client
	bad    uint64 // lookups that did not return the loaded value
}

func newBT(gens ycsbPool) app { return &btApp{gens: gens} }

func (a *btApp) config(b *benchCtx, threads int, seed int64) closedCfg {
	return closedCfg{
		name: "bt",
		cluster: cluster.Config{ComputeBlades: 1, MemoryBlades: 1,
			BladeCapacity: btKeys*40 + (64 << 20), Seed: seed},
		threads: threads,
		kinds:   []string{"sherman.LookupSpec"},
		load: func(cl *cluster.Cluster) {
			b.rec.host("sherman.BulkLoad", func() {
				keys := make([]uint64, btKeys)
				for i := range keys {
					keys[i] = uint64(i + 1)
				}
				a.tree = sherman.BulkLoad(cl.Targets(), keys, 0.7)
			})
			a.client = sherman.NewClient(a.tree, cl.Eng, true)
		},
		body: func(ti, d int) func(*core.Ctx, *loop, int) {
			gen := a.gens.get(b, ti, d, b.seed+int64(ti)*1_013+int64(d)*17+1, btKeys, workload.ReadOnly)
			return func(c *core.Ctx, l *loop, task int) {
				_, key := gen.Next() // read-only mix: every op is a lookup
				key++                // tree keys are 1-based
				l.begin(task, c.Now())
				if v, ok := a.client.LookupSpec(c, key); !ok || v != key {
					a.bad++
				}
				l.end(task, 0, c.Now(), 0)
			}
		},
	}
}

func (a *btApp) check(*closedRun) (uint64, []string) {
	if a.bad > 0 {
		return a.bad, []string{fmt.Sprintf("bt: %d LookupSpec calls did not return the loaded value", a.bad)}
	}
	return 0, nil
}

func (a *btApp) layer(r *closedRun) map[string]float64 {
	hits, misses := float64(a.client.SpecHits), float64(a.client.SpecMisses)
	return map[string]float64{
		"sherman.lookup_p50_us":  r.loop.kindQuantile(0, 0.50),
		"sherman.lookup_p99_us":  r.loop.kindQuantile(0, 0.99),
		"sherman.spec_hit_ratio": ratio(hits, hits+misses),
		"sherman.wrs_per_lookup": ratio(float64(r.cl.Computes[0].NIC.Snapshot().Completed), float64(r.loop.done)),
	}
}

func btCross(seed int64, threads int) crossRef {
	r := bench.RunBT(bench.BTConfig{Variant: bench.SmartBT, Servers: 1, ThreadsPerBlade: threads,
		Keys: btKeys, Theta: zipfTheta, Mix: workload.ReadOnly,
		Warmup: closedWarmup, Measure: closedMeasure, Seed: seed})
	return crossRef{ops: r.Ops, mops: r.MOPS, p50: r.Median, p99: r.P99}
}

// ---- dtx-smallbank: FORD SmallBank on NVM blades ----

const dtxAccounts = 100_000

type dtxApp struct{ sb *ford.SmallBank }

func newDTX(ycsbPool) app { return &dtxApp{} }

func (a *dtxApp) config(b *benchCtx, threads int, seed int64) closedCfg {
	return closedCfg{
		name: "dtx",
		cluster: cluster.Config{ComputeBlades: 1, MemoryBlades: 2, MemoryKind: blade.NVM,
			BladeCapacity: dtxAccounts*600/2 + (128 << 20), Seed: seed},
		threads: threads,
		kinds:   []string{"ford.RunOne"},
		load: func(cl *cluster.Cluster) {
			b.rec.host("ford.NewSmallBank", func() { a.sb = ford.NewSmallBank(cl.Targets(), dtxAccounts) })
			b.rec.host("ford.Load", a.sb.Load)
		},
		body: func(ti, d int) func(*core.Ctx, *loop, int) {
			rng := rand.New(rand.NewSource(seed + int64(ti)*1_021 + int64(d)*19 + 1))
			return func(c *core.Ctx, l *loop, task int) {
				l.begin(task, c.Now())
				aborts := a.sb.RunOne(c, rng) // returns only once the transaction committed
				l.end(task, 0, c.Now(), aborts)
			}
		},
	}
}

func (a *dtxApp) check(r *closedRun) (uint64, []string) {
	// Every RunOne return is one commit, and each is one core op.
	if ops := r.rt.TotalStats().Ops; ops != r.loop.done {
		return 0, []string{fmt.Sprintf("dtx: %d commits but core counted %d ops", r.loop.done, ops)}
	}
	return 0, nil
}

func (a *dtxApp) layer(r *closedRun) map[string]float64 {
	commits := float64(len(r.loop.lat))
	return map[string]float64{
		"ford.commit_ratio": ratio(commits, commits+float64(r.loop.retries)),
		"ford.wrs_per_txn":  ratio(float64(r.cl.Computes[0].NIC.Snapshot().Completed), float64(r.loop.done)),
	}
}

func dtxCross(seed int64, threads int) crossRef {
	r := bench.RunDTX(bench.DTXConfig{Workload: bench.SmallBank, Threads: threads, MemoryBlades: 2,
		Records: dtxAccounts, Warmup: closedWarmup, Measure: closedMeasure, Seed: seed})
	return crossRef{ops: r.Txns, mops: r.MTPS, p50: r.Median, p99: r.P99}
}
