package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/sim"
)

// span is one recorded interval. Host spans time a call into a layer
// on the machine's clock (ns since the benchmark started); sim spans
// time one application call in simulated ns and carry the op's ID.
type span struct {
	id, parent int64
	op         int64 // application op ID (sim spans), 0 for host spans
	clock      byte  // 'h' host, 's' sim
	name       string
	start, end int64
}

// recorder times every layer call the benchmark makes. It always sums
// host time per layer name (the per-layer set-up metrics); with
// tracing on it also keeps every span in memory until write.
type recorder struct {
	origin time.Time
	on     bool
	spans  []span
	nextID int64
	parent int64            // innermost open host span
	last   int64            // latest finished host span
	total  map[string]int64 // host ns per layer call name
}

func newRecorder(origin time.Time, on bool) *recorder {
	return &recorder{origin: origin, on: on, total: make(map[string]int64)}
}

// host runs fn as one call into a layer and returns its duration.
func (r *recorder) host(name string, fn func()) time.Duration {
	id := r.newID()
	outer := r.parent
	r.parent = id
	t0 := time.Now()
	fn()
	t1 := time.Now()
	r.parent, r.last = outer, id
	d := t1.Sub(t0)
	r.total[name] += int64(d)
	if r.on {
		r.spans = append(r.spans, span{id: id, parent: outer, clock: 'h', name: name,
			start: int64(t0.Sub(r.origin)), end: int64(t1.Sub(r.origin))})
	}
	return d
}

// op records one application call in simulated time; parent is the
// host span that ran the simulation.
func (r *recorder) op(name string, parent int64, start, end sim.Time) {
	if !r.on {
		return
	}
	id := r.newID()
	r.spans = append(r.spans, span{id: id, parent: parent, op: id, clock: 's', name: name,
		start: int64(start), end: int64(end)})
}

func (r *recorder) newID() int64 {
	r.nextID++
	return r.nextID
}

// write stores the spans as tab-separated lines, one span a line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tclock\tname\tstart_ns\tend_ns")
	for _, s := range r.spans {
		clock := "host"
		if s.clock == 's' {
			clock = "sim"
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%s\t%d\t%d\n", s.id, s.parent, s.op, clock, s.name, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
