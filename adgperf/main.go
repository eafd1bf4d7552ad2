// Command adgperf is the repository benchmark. It runs one named workload
// against a cluster opened with dbimadg.Open, checks that the results are
// correct, and prints its metrics as one JSON object on the last line of
// standard output:
//
//	adgperf --workload scan_offload --seed 1 --seconds 30 --trace 0
//
// --trace 0 measures the end-to-end metrics with the shipped defaults;
// --trace 1 runs an untraced and a traced window and prints the per-layer
// metrics, writing benchmark-side spans under .bench_build/adgperf/. See
// README.md in this directory for the workloads and what each metric should
// move.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// workRoot holds run scratch (snapshot directories) and span files,
// relative to the directory the benchmark runs in.
const workRoot = ".bench_build/adgperf"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload workloadSpec
	seed     int64
	seconds  int
	traced   bool
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("adgperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (scan_offload, redo_ingest)")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured window length in seconds")
	trace := fs.Int("trace", 0, "0 prints end-to-end metrics, 1 per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	ws, err := findWorkload(*name)
	if err != nil {
		return options{}, err
	}
	if *seconds < 1 {
		return options{}, fmt.Errorf("--seconds must be at least 1")
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1")
	}
	return options{workload: ws, seed: *seed, seconds: *seconds, traced: *trace == 1}, nil
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	opt, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "adgperf:", err)
		return 2
	}
	workdir := filepath.Join(workRoot, fmt.Sprintf("run-%d", os.Getpid()))
	defer os.RemoveAll(workdir)
	var res *result
	var stamp map[string]any
	if opt.traced {
		res, stamp, err = runTraced(opt, workdir, stderr)
	} else {
		res, stamp, err = runUntraced(opt, workdir, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "adgperf:", err)
		return 1
	}
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(map[string]any{"stamp": stamp}); err != nil {
		fmt.Fprintln(stderr, "adgperf:", err)
		return 1
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(stderr, "adgperf:", err)
		return 1
	}
	return 0
}

// runUntraced sets up setupRepeats clusters (setup_s is their median),
// drives the window on the last one, then runs the post-window phases.
func runUntraced(opt options, workdir string, log io.Writer) (*result, map[string]any, error) {
	var setups []float64
	var e *env
	for k := 0; k < setupRepeats; k++ {
		s, d, err := setup(opt.workload, opt.seed, false, filepath.Join(workdir, fmt.Sprint("setup-", k)))
		if err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
		if k < setupRepeats-1 {
			s.close()
			continue
		}
		e = s
	}
	defer e.close()
	w := e.runWindow(opt.workload, opt.seed, time.Duration(opt.seconds)*time.Second, nil)
	p := newPhaseResult()
	e.runPhases(w, opt.seed, p, nil, log)

	r := newReport(endToEnd)
	r.set("setup_s", median(setups))
	v, err := w.commitLat.percentile(0.5)
	r.setErr("commit_p50_ms", v, err)
	v, err = w.c2v.percentile(0.5)
	r.setErr("c2v_p50_ms", v, err)
	r.set("cpu_cores", w.cpuCores())
	r.set("heap_mb", w.heapMB)
	return finish(opt, r, w, p, setups, log)
}

// runTraced runs an untraced window and a traced one on two fresh clusters
// at the same offered load; the traced one gives the per-layer metrics and
// the CPU difference between the two is the tracing overhead.
func runTraced(opt options, workdir string, log io.Writer) (*result, map[string]any, error) {
	d := time.Duration(opt.seconds) * time.Second
	base, _, err := setup(opt.workload, opt.seed, false, filepath.Join(workdir, "untraced"))
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	w0 := base.runWindow(opt.workload, opt.seed, d, nil)
	base.close()

	e, setupDur, err := setup(opt.workload, opt.seed, true, filepath.Join(workdir, "traced"))
	if err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	defer e.close()
	tr := newTracer()
	p := newPhaseResult()
	p.timed("scan_burst", func() { e.scanBurst(opt.seed, p, log) })
	w := e.runWindow(opt.workload, opt.seed, d, tr)
	e.runPhases(w, opt.seed, p, tr, log)
	spans := filepath.Join(workRoot, fmt.Sprintf("spans-%s-%d.jsonl", opt.workload.Name, opt.seed))
	if err := tr.write(spans); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}
	fmt.Fprintf(log, "adgperf: spans written to %s\n", spans)
	tr.summarize(log)

	r := newReport(perLayer)
	w.layerMetrics(r)
	r.set("imcs.populate_s", e.popTime.Seconds())
	r.set("scan.cpu_ms_per_query", p.burstCPUMS)
	r.set("standby.drain_cvs_s", median(p.drainCVs))
	r.set("scanengine.imcs_speedup", median(p.speedups))
	r.set("checkpoint.serving_ms_p50", median(p.servingMS))
	r.set("checkpoint.write_ms_p50", median(p.ckptWriteMS))
	r.set("checkpoint.bytes", median(p.ckptBytes))
	r.set("checkpoint.restored_units", median(p.restoredUnits))
	r.set("standby.restart_call_ms_p50", median(p.restartCallMS))
	r.set("standby.catchup_ms_p50", median(p.catchupMS))
	r.set("imcs.repopulate_ms_p50", median(p.repopMS))
	r.set("obs.trace_overhead_pct", (w.cpuCores()/w0.cpuCores()-1)*100)
	for kind, name := range []string{"scan.q1_p50_ms", "scan.q2_p50_ms", "scan.agg_p50_ms"} {
		v, err := w0.scanLat[kind].percentile(0.5)
		r.setErr(name, v, err)
	}
	v, err := w0.scanAll.percentile(0.95)
	r.setErr("tail.scan_p95_ms", v, err)
	v, err = w0.commitLat.percentile(0.99)
	r.setErr("tail.commit_p99_ms", v, err)
	v, err = w0.c2v.percentile(0.99)
	r.setErr("tail.c2v_p99_ms", v, err)
	p.attempted += w0.attempted
	p.failed += w0.failed
	return finish(opt, r, w, p, []float64{setupDur.Seconds()}, log)
}

// finish assembles the result line and the stamp that makes it comparable.
func finish(opt options, r *report, w *windowResult, p *phaseResult, setups []float64, log io.Writer) (*result, map[string]any, error) {
	m, err := r.complete()
	if err != nil {
		return nil, nil, err
	}
	attempted := w.attempted + p.attempted
	failed := w.failed + p.failed
	late, _ := w.late.percentile(0.99) // the window always holds enough samples
	reconnects := w.obsAfter.Counters["transport_reconnects_total"] - w.obsBefore.Counters["transport_reconnects_total"]
	phases := map[string]any{
		"drain_cvs_s": p.drainCVs, "serving_ms": p.servingMS, "oracle_scans": len(w.oracle),
		"wall_s": p.wallS,
	}
	if opt.traced {
		phases["scan_burst_ms"] = map[string]any{
			"q1": p.burstLat[kindQ1].summary(), "q2": p.burstLat[kindQ2].summary(), "agg": p.burstLat[kindAgg].summary(),
		}
	}
	stamp := map[string]any{
		"host": map[string]any{
			"cpu_model":  cpuModel(),
			"num_cpu":    runtime.NumCPU(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
			"go":         runtime.Version(),
			"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		},
		"workload": opt.workload.Name,
		"seed":     opt.seed,
		"seconds":  opt.seconds,
		"traced":   opt.traced,
		"constants": map[string]any{
			"rows":           tableRows,
			"dml_txn_per_s":  opt.workload.DMLRate,
			"scans_per_s":    opt.workload.ScanRate,
			"insert_pct":     opt.workload.InsertPct,
			"transport":      "tcp",
			"drain_txns":     drainTxns,
			"drain_bursts":   drainBursts,
			"burst_cycles":   scanBurstCycles,
			"restart_cycles": restartCycles,
			"restart_churn":  restartChurn,
			"oracle_cycles":  oracleCycles,
			"client_loop":    "open",
		},
		"generator_late_ms_p99": late,
		"generator_late_ms_max": maxOf(w.late),
		"observer_poll_us":      w.observerUS(),
		"setup_s":               setups,
		"latency_ms": map[string]any{
			"q1": w.scanLat[kindQ1].summary(), "q2": w.scanLat[kindQ2].summary(), "agg": w.scanLat[kindAgg].summary(),
			"scans": w.scanAll.summary(), "commits": w.commitLat.summary(), "c2v": w.c2v.summary(),
		},
		"phases": phases,
		"counters": map[string]float64{
			"transport_reconnects": reconnects,
			"restore_fallbacks":    float64(p.fallbacks),
			"stale_session_wrong":  float64(p.staleMismatches),
		},
	}
	if failed > 0 {
		fmt.Fprintf(log, "adgperf: %d of %d operations failed\n", failed, attempted)
	}
	return &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: m}, stamp, nil
}

// cpuModel reads the processor model name for the host fingerprint.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
