package main

import (
	"fmt"
	"regexp"
)

// metricDef declares one reported metric. BENCHMARK.json at the repository
// root lists the same names, units, directions and bounds; metrics_test.go
// keeps the two in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: allowed worsening as a share of the baseline median
}

// endToEnd are the numbers a user of the system sees, printed by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"commit_p50_ms", "ms", "lower", 0.25},
	{"c2v_p50_ms", "ms", "lower", 0.25},
	{"cpu_cores", "cores", "lower", 0.25},
	{"heap_mb", "MB", "lower", 0.15},
}

// perLayer are the single-layer numbers printed by a traced run, grouped by
// the module that does the work.
var perLayer = []metricDef{
	// txn / primary / rowstore: time inside the public calls.
	{Name: "txn.dml_us_p50", Unit: "us", Better: "lower"},
	{Name: "txn.commit_us_p50", Unit: "us", Better: "lower"},
	{Name: "txn.commit_us_p99", Unit: "us", Better: "lower"},
	// redo / transport.
	{Name: "redo.bytes_per_txn", Unit: "B", Better: "lower"},
	{Name: "transport.ship_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.ship_us_p99", Unit: "us", Better: "lower"},
	// standby apply pipeline.
	{Name: "standby.merge_us_p50", Unit: "us", Better: "lower"},
	{Name: "standby.dispatch_us_p50", Unit: "us", Better: "lower"},
	{Name: "standby.apply_us_p50", Unit: "us", Better: "lower"},
	{Name: "standby.apply_us_p99", Unit: "us", Better: "lower"},
	{Name: "standby.publish_us_p50", Unit: "us", Better: "lower"},
	{Name: "standby.cvs_applied_per_s", Unit: "1/s", Better: "higher"},
	{Name: "standby.queryscn_advances_per_s", Unit: "1/s", Better: "higher"},
	{Name: "standby.apply_queue_depth_mean", Unit: "count", Better: "lower"},
	{Name: "standby.apply_lag_scn_max", Unit: "SCN", Better: "lower"},
	// Unpaced burst drain throughput (Fig. 11). It follows the host's speed
	// too closely to carry a bound on a small shared host (see README.md).
	{Name: "standby.drain_cvs_s", Unit: "CV/s", Better: "higher"},
	// core: mining, journal, commit table, invalidation flush.
	{Name: "core.mine_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.flush_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.flush_us_p99", Unit: "us", Better: "lower"},
	{Name: "core.mined_records_per_txn", Unit: "count", Better: "lower"},
	{Name: "core.flushed_records_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.journal_txns_mean", Unit: "count", Better: "lower"},
	{Name: "core.committable_pending_mean", Unit: "count", Better: "lower"},
	{Name: "core.coarse_invalidations", Unit: "count", Better: "lower"},
	// imcs: column store and population.
	{Name: "imcs.invalid_rows_mean", Unit: "count", Better: "lower"},
	{Name: "imcs.rows_invalidated_per_s", Unit: "1/s", Better: "lower"},
	{Name: "imcs.units_repopulated", Unit: "count", Better: "lower"},
	{Name: "imcs.population_pending_mean", Unit: "count", Better: "lower"},
	{Name: "imcs.mem_mb", Unit: "MB", Better: "lower"},
	{Name: "imcs.populate_s", Unit: "s", Better: "lower"},
	// scanengine: pruning, serving paths, morsel scheduling.
	{Name: "scanengine.units_pruned_frac", Unit: "ratio", Better: "higher"},
	{Name: "scanengine.rows_imcs_frac", Unit: "ratio", Better: "higher"},
	{Name: "scanengine.rows_fallback_per_query", Unit: "count", Better: "lower"},
	{Name: "scanengine.batches_per_query", Unit: "count", Better: "lower"},
	{Name: "scanengine.morsels_per_query", Unit: "count", Better: "lower"},
	{Name: "scanengine.steals_per_query", Unit: "count", Better: "lower"},
	{Name: "scanengine.worker_busy_frac", Unit: "ratio", Better: "higher"},
	{Name: "scanengine.imcs_speedup", Unit: "x", Better: "higher"},
	// sqlmini.
	{Name: "sqlmini.parse_compile_us_p50", Unit: "us", Better: "lower"},
	// checkpoint and restart. Restart-to-serving follows the host's speed
	// too closely to carry a bound on a small shared host (see README.md).
	{Name: "checkpoint.serving_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.write_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "checkpoint.bytes", Unit: "B", Better: "lower"},
	{Name: "checkpoint.restored_units", Unit: "count", Better: "higher"},
	{Name: "standby.restart_call_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "standby.catchup_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "imcs.repopulate_ms_p50", Unit: "ms", Better: "lower"},
	// Go runtime.
	{Name: "gc.cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "gc.pause_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "gc.alloc_mb_per_s", Unit: "MB/s", Better: "lower"},
	{Name: "gc.cycles_per_s", Unit: "1/s", Better: "lower"},
	// End-to-end scan cost and latencies, and tails. They follow the host's
	// speed too closely to carry a bound on a small shared host (see
	// README.md). The CPU per query comes from the scan burst, the others
	// from the traced run's untraced window.
	{Name: "scan.cpu_ms_per_query", Unit: "ms", Better: "lower"},
	{Name: "scan.q1_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "scan.q2_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "scan.agg_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.scan_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.commit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "tail.c2v_p99_ms", Unit: "ms", Better: "lower"},
	// Harness honesty: not optimisation targets.
	{Name: "obs.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "bench.gen_late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "bench.observer_us", Unit: "us", Better: "lower"},
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects the metrics of one run against a declared set, so a run
// can neither print an undeclared name nor silently leave one out.
type report struct {
	defs   map[string]metricDef
	order  []string
	values map[string]metricValue
	errs   []error
}

func newReport(defs []metricDef) *report {
	r := &report{defs: make(map[string]metricDef), values: make(map[string]metricValue)}
	for _, d := range defs {
		r.defs[d.Name] = d
		r.order = append(r.order, d.Name)
	}
	return r
}

func (r *report) set(name string, v float64) {
	d, ok := r.defs[name]
	if !ok {
		r.errs = append(r.errs, fmt.Errorf("metric %s is not declared", name))
		return
	}
	r.values[name] = metricValue{Value: v, Unit: d.Unit}
}

// setErr records v, or the reason v could not be measured.
func (r *report) setErr(name string, v float64, err error) {
	if err != nil {
		r.errs = append(r.errs, fmt.Errorf("%s: %w", name, err))
		return
	}
	r.set(name, v)
}

// complete returns the metrics, or the first error when any declared metric
// is missing or could not be measured.
func (r *report) complete() (map[string]metricValue, error) {
	if len(r.errs) > 0 {
		return nil, r.errs[0]
	}
	for _, n := range r.order {
		if _, ok := r.values[n]; !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
	}
	return r.values, nil
}
