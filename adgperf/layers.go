package main

import (
	"fmt"
	"time"
)

// cpuCores is the process CPU time over the window divided by its wall time.
func (w *windowResult) cpuCores() float64 {
	return float64(w.rtAfter.cpu-w.rtBefore.cpu) / float64(w.wall)
}

// observerUS is the achieved mean QuerySCN polling period in microseconds.
func (w *windowResult) observerUS() float64 {
	if w.polls == 0 {
		return 0
	}
	return float64(w.pollWall) / float64(w.polls) / float64(time.Microsecond)
}

// counterDelta is how much a program counter grew over the window.
func (w *windowResult) counterDelta(name string) float64 {
	return w.obsAfter.Counters[name] - w.obsBefore.Counters[name]
}

// stageUS sets name to the p-quantile, in microseconds, of the time the
// freshness tracer attributed to one pipeline stage during the window.
func (w *windowResult) stageUS(r *report, name, stage string, p float64) {
	h := "freshness_stage_" + stage + "_seconds"
	after, ok := w.obsAfter.Histograms[h]
	if !ok {
		r.setErr(name, 0, fmt.Errorf("program histogram %s is not registered", h))
		return
	}
	v, err := histPercentile(histDelta(w.obsBefore.Histograms[h], after), p, time.Microsecond)
	r.setErr(name, v, err)
}

// layerMetrics sets the per-layer metrics a traced window measures.
func (w *windowResult) layerMetrics(r *report) {
	secs := w.wall.Seconds()
	txns := float64(w.txns)
	us := func(name string, s samples, p float64) {
		v, err := s.percentile(p)
		r.setErr(name, v*1000, err)
	}
	gaugeMean := func(name, gauge string) { r.set(name, mean(w.gauges[gauge])) }

	us("txn.dml_us_p50", w.dmlCall, 0.5)
	us("txn.commit_us_p50", w.commitCall, 0.5)
	us("txn.commit_us_p99", w.commitCall, 0.99)

	var redoBytes int64
	for i, b := range w.statsAfter.RedoBytesPerInst {
		redoBytes += b - w.statsBefore.RedoBytesPerInst[i]
	}
	r.set("redo.bytes_per_txn", float64(redoBytes)/txns)
	w.stageUS(r, "transport.ship_us_p50", "ship", 0.5)
	w.stageUS(r, "transport.ship_us_p99", "ship", 0.99)

	sb, sa := w.statsBefore.Standby, w.statsAfter.Standby
	w.stageUS(r, "standby.merge_us_p50", "merge", 0.5)
	w.stageUS(r, "standby.dispatch_us_p50", "dispatch", 0.5)
	w.stageUS(r, "standby.apply_us_p50", "apply", 0.5)
	w.stageUS(r, "standby.apply_us_p99", "apply", 0.99)
	w.stageUS(r, "standby.publish_us_p50", "publish", 0.5)
	r.set("standby.cvs_applied_per_s", float64(sa.CVsApplied-sb.CVsApplied)/secs)
	r.set("standby.queryscn_advances_per_s", float64(sa.QuerySCNAdvances-sb.QuerySCNAdvances)/secs)
	gaugeMean("standby.apply_queue_depth_mean", "standby_apply_queue_depth")
	r.set("standby.apply_lag_scn_max", maxOf(w.gauges["standby_apply_lag_scn"]))

	w.stageUS(r, "core.mine_us_p50", "mine", 0.5)
	w.stageUS(r, "core.flush_us_p50", "flush", 0.5)
	w.stageUS(r, "core.flush_us_p99", "flush", 0.99)
	r.set("core.mined_records_per_txn", float64(sa.MinedRecords-sb.MinedRecords)/txns)
	r.set("core.flushed_records_per_s", float64(sa.FlushedRecords-sb.FlushedRecords)/secs)
	gaugeMean("core.journal_txns_mean", "standby_journal_resident_txns")
	gaugeMean("core.committable_pending_mean", "standby_committable_pending")
	r.set("core.coarse_invalidations", float64(sa.CoarseInvals-sb.CoarseInvals))

	gaugeMean("imcs.invalid_rows_mean", "imcs_invalid_rows")
	r.set("imcs.rows_invalidated_per_s", w.counterDelta("imcs_rows_invalidated_total")/secs)
	r.set("imcs.units_repopulated", w.counterDelta("imcs_units_repopulated_total"))
	gaugeMean("imcs.population_pending_mean", "imcs_population_pending")
	r.set("imcs.mem_mb", w.storeMemMB)

	pt := w.profiles
	if pt.queries == 0 {
		r.setErr("scanengine", 0, fmt.Errorf("no profiled scans"))
		return
	}
	q := float64(pt.queries)
	r.set("scanengine.units_pruned_frac", float64(pt.unitsPruned)/float64(pt.unitsPruned+pt.unitsScanned+pt.unitsFB))
	r.set("scanengine.rows_imcs_frac", float64(pt.rowsIMCS)/float64(pt.resultRows))
	r.set("scanengine.rows_fallback_per_query", float64(pt.rowsFallback)/q)
	r.set("scanengine.batches_per_query", float64(pt.batches)/q)
	r.set("scanengine.morsels_per_query", float64(pt.morsels)/q)
	r.set("scanengine.steals_per_query", float64(pt.steals)/q)
	r.set("scanengine.worker_busy_frac", float64(pt.busyNanos)/float64(pt.capacityNanos))
	us("sqlmini.parse_compile_us_p50", w.parse, 0.5)

	ra, rb := w.rtAfter, w.rtBefore
	r.set("gc.cpu_frac", (ra.gcCPU-rb.gcCPU)/(ra.allCPU-rb.allCPU))
	r.set("gc.pause_ms_per_s", ms(ra.pauseTotal-rb.pauseTotal)/secs)
	r.set("gc.alloc_mb_per_s", float64(ra.totalAlloc-rb.totalAlloc)/(1<<20)/secs)
	r.set("gc.cycles_per_s", float64(ra.numGC-rb.numGC)/secs)

	late, err := w.late.percentile(0.99)
	r.setErr("bench.gen_late_ms_p99", late, err)
	r.set("bench.observer_us", w.observerUS())
}
