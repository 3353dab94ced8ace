package main

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/stats"
)

// idle marks a task with no call in flight.
const idle sim.Time = -1

// loop is the closed-loop harness the hash-table, B+tree and SmallBank
// workloads share. Each task (one coroutine) brackets every app call
// with begin/end; the loop keeps the exact latency of every call that
// started after the warm-up and finished by the horizon — the same
// population bench.RunHT and bench.RunBT count — plus, per task, the
// start of the call still in flight.
type loop struct {
	spans           *recorder // records each call after the warm-up; nil: none
	warmup, horizon sim.Time
	kinds           []string // span name per call kind

	cur     []sim.Time   // per task: start of the call in flight, or idle
	done    uint64       // calls completed, warm-up included
	lat     []sim.Time   // measured calls, exact
	byKind  [][]sim.Time // measured calls per kind
	hist    *stats.Hist  // measured calls, stats.Hist buckets (cross-check)
	retries uint64       // summed per-call retries of measured calls
}

func newLoop(warmup, measure sim.Time, kinds ...string) *loop {
	return &loop{
		warmup: warmup, horizon: warmup + measure, kinds: kinds,
		byKind: make([][]sim.Time, len(kinds)),
		hist:   stats.NewHist(),
	}
}

// task registers one closed-loop client and returns its index.
func (l *loop) task() int {
	l.cur = append(l.cur, idle)
	return len(l.cur) - 1
}

func (l *loop) begin(task int, now sim.Time) { l.cur[task] = now }

// end closes task's call of the given kind; retries is what the call
// reported (CAS retries, aborts), summed over measured calls.
func (l *loop) end(task, kind int, now sim.Time, retries int) {
	start := l.cur[task]
	l.cur[task] = idle
	l.done++
	if start >= l.warmup && now <= l.horizon {
		d := now - start
		l.lat = append(l.lat, d)
		l.byKind[kind] = append(l.byKind[kind], d)
		l.hist.Add(d)
		l.retries += uint64(retries)
	}
	if l.spans != nil && start >= l.warmup {
		l.spans.op(l.kinds[kind], l.spans.parent, start, now)
	}
}

// inflight returns the age at the horizon of every call still open.
func (l *loop) inflight() []sim.Time {
	var ages []sim.Time
	for _, s := range l.cur {
		if s != idle {
			ages = append(ages, l.horizon-s)
		}
	}
	return ages
}

// pooled gathers the calls of one or more closed-loop runs of the same
// load point: measured latencies, in-flight ages at each horizon, and
// the total measured window.
type pooled struct {
	lat, ages []sim.Time
	window    sim.Time
}

func (p *pooled) add(l *loop) {
	p.lat = append(p.lat, l.lat...)
	p.ages = append(p.ages, l.inflight()...)
	p.window += l.horizon - l.warmup
}

// closedSummary is the simulated-time outcome of a load point.
type closedSummary struct {
	ops      uint64  // measured completed calls
	mops     float64 // ops per simulated µs
	p50, p99 float64 // µs, in-flight calls entered at their age
	p999     float64
	inflight int
	samples  int     // latency samples: measured calls plus calls in flight
	sloMops  float64 // measured calls within limit per simulated µs
	failFrac float64 // in flight at the horizon over attempted
}

// summarize computes the end-to-end numbers. limit is the workload's
// latency limit for slo_rate_mops.
func (p *pooled) summarize(limit sim.Time) (closedSummary, error) {
	all := make([]sim.Time, 0, len(p.lat)+len(p.ages))
	all = append(all, p.lat...)
	all = append(all, p.ages...)
	sortTimes(all)
	if err := tailSamples(len(all)); err != nil {
		return closedSummary{}, err
	}
	window := float64(p.window) / 1e3
	var within uint64
	for _, d := range p.lat {
		if d <= limit {
			within++
		}
	}
	return closedSummary{
		ops:      uint64(len(p.lat)),
		mops:     float64(len(p.lat)) / window,
		p50:      nsToUS(quantile(all, 0.50)),
		p99:      nsToUS(quantile(all, 0.99)),
		p999:     nsToUS(quantile(all, 0.999)),
		inflight: len(p.ages),
		samples:  len(all),
		sloMops:  float64(within) / window,
		failFrac: float64(len(p.ages)) / float64(len(all)),
	}, nil
}

// kindQuantile is the exact q-quantile of one call kind's measured
// latencies in µs (0 when the kind never ran).
func (l *loop) kindQuantile(kind int, q float64) float64 {
	s := append([]sim.Time(nil), l.byKind[kind]...)
	sortTimes(s)
	return nsToUS(quantile(s, q))
}

// tailSamples checks that n latency samples leave at least 10 beyond
// p999, the highest percentile reported.
func tailSamples(n int) error {
	if float64(n)*(1-0.999) < 10 {
		return fmt.Errorf("only %d samples: p999 needs at least 10 beyond it", n)
	}
	return nil
}

func sortTimes(s []sim.Time) { sort.Slice(s, func(i, j int) bool { return s[i] < s[j] }) }

// quantile is the q-quantile of sorted samples, in ns, by Parzen's
// mid-distribution quantile: the inverse of F(x) - P(X = x)/2,
// interpolated linearly between distinct sample values. Simulated
// latencies are discrete — deterministic service times put a large
// share of the calls on the very same nanosecond value — and there the
// ordinary sample quantile reads the same for every seed while the
// mass around it moves; the mid-quantile follows the mass. On samples
// without ties it lies within one sample of the nearest-rank quantile.
func quantile(sorted []sim.Time, q float64) float64 {
	n := float64(len(sorted))
	if n == 0 {
		return 0
	}
	prevX, prevF := float64(sorted[0]), 0.0
	for i := 0; i < len(sorted); {
		j := i
		for j < len(sorted) && sorted[j] == sorted[i] {
			j++
		}
		x, f := float64(sorted[i]), (float64(i)+float64(j-i)/2)/n
		if f >= q {
			if i == 0 {
				return x
			}
			return prevX + (q-prevF)/(f-prevF)*(x-prevX)
		}
		prevX, prevF = x, f
		i = j
	}
	return prevX
}

func us(t sim.Time) float64 { return float64(t) / 1e3 }

func nsToUS(ns float64) float64 { return ns / 1e3 }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
