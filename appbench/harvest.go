package main

import (
	"strings"

	"repro/internal/result"
	"repro/internal/telemetry"
)

// harvest turns a registry filled by Runtime.Collect into the core,
// rnic and verbs per-layer metrics, summing the counters of every
// runtime prefix ("" for one runtime, "r0/", "r1/" under serve.Run).
// Controller means average the final value of each recorded thread's
// trajectory (core records the first eight threads of a runtime).
func harvest(reg *telemetry.Registry, prefixes ...string) map[string]float64 {
	sum := func(name string) float64 {
		var v uint64
		for _, p := range prefixes {
			v += reg.Value(p + name)
		}
		return float64(v)
	}
	tables := reg.Tables("")
	lastMean := func(group string) float64 {
		var s float64
		var n int
		for _, p := range prefixes {
			t := result.Find(tables, p+group)
			if t == nil {
				continue
			}
			for _, ser := range t.Series {
				if len(ser.Points) > 0 && strings.HasPrefix(ser.Name, "t") {
					s += ser.Points[len(ser.Points)-1].Value
					n++
				}
			}
		}
		return ratio(s, float64(n))
	}
	var owrMax float64
	for _, p := range prefixes {
		if t := result.Find(tables, p+"threads"); t != nil {
			for _, pt := range t.Points("owr-max") {
				owrMax = max(owrMax, pt.Value)
			}
		}
	}

	wrs := sum("nic/completed")
	cas, casFailed := sum("core/cas-total"), sum("core/cas-failed")
	acq := sum("db/acquisitions-total")
	return map[string]float64{
		"sim.parks": float64(reg.Value("engine/parks")),
		"sim.wakes": float64(reg.Value("engine/wakes")),

		"core.cas_attempts":      cas,
		"core.cas_success_ratio": ratio(cas-casFailed, cas),
		"core.cmax_mean":         lastMean("cmax-trajectory"),
		"core.tmax_mean_us":      lastMean("tmax-trajectory"),
		"core.cmax_coro_mean":    lastMean("cmax-coro-trajectory"),
		"core.owr_max":           owrMax,
		"core.wrs_per_op":        ratio(sum("core/wrs"), sum("core/ops")),
		"core.fault_abandoned":   sum("fault/abandoned"),

		"rnic.wrs":              wrs,
		"rnic.wrs_read":         sum("nic/completed-read"),
		"rnic.wrs_write":        sum("nic/completed-write"),
		"rnic.wrs_cas":          sum("nic/completed-cas"),
		"rnic.wrs_faa":          sum("nic/completed-faa"),
		"rnic.wqe_miss_rate":    ratio(sum("nic/wqe-misses"), wrs),
		"rnic.mtt_miss_rate":    ratio(sum("nic/mtt-misses"), wrs),
		"rnic.dma_bytes_per_wr": ratio(sum("nic/dma-bytes"), wrs),

		"verbs.db_acquisitions":   acq,
		"verbs.db_contended_frac": ratio(sum("db/contended-total"), acq),
		"verbs.wrs_per_ring":      ratio(wrs, sum("db/rings-total")),
	}
}
