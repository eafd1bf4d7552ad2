package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"dbimadg"
)

// phaseResult is what the phases after the window measured: the
// scan burst (traced runs), the correctness oracle, the drain bursts and the
// restart cycles.
type phaseResult struct {
	attempted, failed int64

	// Oracle: for each re-checked window scan, the row-store re-check's
	// execution time at the scan's snapshot divided by the IMCS query's.
	speedups []float64

	drainCVs []float64 // change vectors applied per second, one per burst

	// Isolated scans (traced runs): per-kind latency and process CPU per
	// query of the closed-loop scan burst.
	burstLat   [numScanKinds]samples
	burstCPUMS float64

	servingMS, ckptWriteMS, restartCallMS, catchupMS, repopMS []float64
	ckptBytes, restoredUnits                                  []float64
	fallbacks                                                 int64
	// staleMismatches counts restarts after which a session opened before
	// the restart answered wrongly; reported in the stamp, not as failures.
	staleMismatches int64

	// wallS is each phase's wall time in seconds, for the stamp.
	wallS map[string]float64
}

func (p *phaseResult) fail(log io.Writer, format string, args ...any) {
	p.failed++
	fmt.Fprintf(log, "adgperf: check failed: "+format+"\n", args...)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func newPhaseResult() *phaseResult { return &phaseResult{wallS: make(map[string]float64)} }

// timed runs phase and records its wall time under name.
func (p *phaseResult) timed(name string, phase func()) {
	start := time.Now()
	phase()
	p.wallS[name] = time.Since(start).Seconds()
}

// runPhases runs, in order: the oracle re-checks of the window's sampled
// scans, the primary-versus-standby full-table comparison, the drain bursts
// and the restart cycles.
func (e *env) runPhases(w *windowResult, seed int64, p *phaseResult, tr *tracer, log io.Writer) {
	p.timed("oracle", func() { e.checkSamples(w, p, tr, log); e.checkTotals(p, log) })
	p.timed("drain", func() { e.drain(seed, p, log) })
	p.timed("restarts", func() { e.restarts(seed, p, tr, log) })
}

// checkSamples re-executes each sampled window scan through a row-store-only
// executor at the scan's own snapshot and compares canonical results.
func (e *env) checkSamples(w *windowResult, p *phaseResult, tr *tracer, log io.Writer) {
	for _, s := range w.oracle {
		p.attempted++
		t0 := time.Now()
		rs, err := e.rowStoreRun(s.q, s.snap)
		t1 := time.Now()
		if tr != nil {
			tr.span(0, "oracle.rowstore", t0, t1)
		}
		if err != nil {
			p.fail(log, "row-store re-check at SCN %d: %v", s.snap, err)
			continue
		}
		if !sameResult(s.res, rs, e.sbyTbl) {
			p.fail(log, "%s at SCN %d: IMCS %s, row store %s", kindNames[s.kind], s.snap, describe(s.res), describe(rs))
			continue
		}
		p.speedups = append(p.speedups, float64(t1.Sub(t0))/float64(s.exec))
	}
}

// checkTotals compares a full-table grouped aggregate on the primary and on
// the standby at one SCN.
func (e *env) checkTotals(p *phaseResult, log io.Writer) {
	p.attempted++
	at := e.pri.Snapshot()
	if !e.master.WaitForSCN(at, time.Minute) {
		p.fail(log, "standby QuerySCN never reached primary SCN %d", at)
		return
	}
	qp, err := compile(sqlTotal, e.priTbl, nil)
	if err != nil {
		p.fail(log, "compile on primary: %v", err)
		return
	}
	qs, err := compile(sqlTotal, e.sbyTbl, nil)
	if err != nil {
		p.fail(log, "compile on standby: %v", err)
		return
	}
	rp, err := e.pri.QueryAt(qp, at)
	if err != nil {
		p.fail(log, "primary totals: %v", err)
		return
	}
	rs, err := e.sby.QueryAt(qs, at)
	if err != nil {
		p.fail(log, "standby totals: %v", err)
		return
	}
	if !sameResult(rs, rp, e.sbyTbl) {
		p.fail(log, "totals at SCN %d: standby %s, primary %s", at, describe(rs), describe(rp))
	}
}

// scanBurst runs scanBurstCycles scan cycles back to back on the freshly
// populated standby, one query at a time and with no DML, timing each query
// and the process CPU they take. It runs before the window: after it, the
// invalid rows the churn leaves behind, and so the queries' cost, depend on
// when repopulation last ran.
func (e *env) scanBurst(seed int64, p *phaseResult, log io.Writer) {
	rng := rand.New(rand.NewSource(seed*7919 + 5))
	if !e.c.WaitPopulated(time.Minute) {
		p.fail(log, "column store did not settle before the scan burst")
		return
	}
	quiesce()
	before := sampleRuntime()
	n := scanBurstCycles * numScanKinds
	for i := 0; i < n; i++ {
		p.attempted++
		kind, sql, binds := scanStatement(i, rng)
		t0 := time.Now()
		q, err := compile(sql, e.sbyTbl, binds)
		if err == nil {
			_, err = e.sby.QueryAt(q, e.sby.Snapshot())
		}
		if err != nil {
			p.fail(log, "burst %s: %v", kindNames[kind], err)
			p.burstLat[kind].addFailed()
			continue
		}
		p.burstLat[kind].addDur(time.Since(t0))
	}
	p.burstCPUMS = ms(sampleRuntime().cpu-before.cpu) / float64(n)
}

// drain commits drainBursts bursts of drainTxns transactions back to back
// and times how fast the standby applies each: change vectors applied from
// the burst's first commit until its last one is visible.
func (e *env) drain(seed int64, p *phaseResult, log io.Writer) {
	rng := rand.New(rand.NewSource(seed*7919 + 3))
	for b := 0; b < drainBursts; b++ {
		// Start each burst from a settled column store: repopulation left
		// over from the window would otherwise compete with apply.
		if !e.c.WaitPopulated(time.Minute) {
			p.fail(log, "column store did not settle before drain burst %d", b)
			return
		}
		quiesce()
		before := e.c.Stats().Standby.CVsApplied
		start := time.Now()
		var last dbimadg.SCN
		for i := 0; i < drainTxns; i++ {
			p.attempted++
			_, _, at, err := e.dml(rng)
			if err != nil {
				p.fail(log, "drain transaction: %v", err)
				continue
			}
			last = at
		}
		p.attempted++
		if !e.master.WaitForSCN(last, time.Minute) {
			p.fail(log, "drain burst never became visible (SCN %d)", last)
			return
		}
		cvs := e.c.Stats().Standby.CVsApplied - before
		p.drainCVs = append(p.drainCVs, float64(cvs)/time.Since(start).Seconds())
	}
}

// restarts runs restartCycles cycles of checkpoint → churn → standby restart
// from the primary's archived redo, timing restart-to-serving: QuerySCN back
// at the primary's SCN at restart and the column store back at the units it
// held before.
func (e *env) restarts(seed int64, p *phaseResult, tr *tracer, log io.Writer) {
	rng := rand.New(rand.NewSource(seed*7919 + 4))
	for k := 0; k < restartCycles; k++ {
		p.attempted++
		if !e.c.WaitPopulated(time.Minute) {
			p.fail(log, "column store did not settle before restart %d", k)
			return
		}
		baseline := e.c.Stats().StandbyStore.PopulatedUnits
		quiesce()
		t0 := time.Now()
		meta, err := e.c.CheckpointNow()
		t1 := time.Now()
		if err != nil {
			p.fail(log, "checkpoint: %v", err)
			return
		}
		p.ckptWriteMS = append(p.ckptWriteMS, ms(t1.Sub(t0)))
		p.ckptBytes = append(p.ckptBytes, float64(meta.Bytes))
		for i := 0; i < restartChurn; i++ {
			tx, err := e.pri.Begin()
			if err == nil {
				if err = e.update(tx, rng); err == nil {
					_, err = tx.Commit()
				} else {
					_ = tx.Abort()
				}
			}
			if err != nil {
				p.fail(log, "restart churn: %v", err)
				return
			}
		}
		target := e.pri.Snapshot()
		fallbacks := e.c.CheckpointStats().RestoreFallbacks
		r0 := time.Now()
		if err := e.master.Restart(e.inProcSource()); err != nil {
			p.fail(log, "restart: %v", err)
			return
		}
		r1 := time.Now()
		// A standby session opened before Restart keeps reading the column
		// store the restart discarded and can return wrong results. Until
		// the program fixes that, the benchmark reconnects after each
		// restart and counts the old session's wrong answers separately
		// (staleMismatches) instead of as failures.
		stale := e.sby
		e.sby = e.c.StandbySession()
		if !e.master.WaitForSCN(target, time.Minute) {
			p.fail(log, "restarted standby never reached SCN %d", target)
			return
		}
		r2 := time.Now()
		deadline := r2.Add(time.Minute)
		for e.c.Stats().StandbyStore.PopulatedUnits < baseline {
			if time.Now().After(deadline) {
				p.fail(log, "column store never returned to %d units", baseline)
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
		r3 := time.Now()
		st := e.c.CheckpointStats()
		if st.RestoreFallbacks > fallbacks {
			p.fallbacks += st.RestoreFallbacks - fallbacks
			p.fail(log, "restart %d fell back to a full rebuild", k)
		}
		p.servingMS = append(p.servingMS, ms(r3.Sub(r0)))
		p.restartCallMS = append(p.restartCallMS, ms(r1.Sub(r0)))
		p.catchupMS = append(p.catchupMS, ms(r2.Sub(r1)))
		p.repopMS = append(p.repopMS, ms(r3.Sub(r2)))
		p.restoredUnits = append(p.restoredUnits, float64(st.LastRestoreUnits))
		if tr != nil {
			id := tr.span(0, "restart.cycle", t0, r3)
			tr.span(id, "checkpoint.write", t0, t1)
			tr.span(id, "standby.restart", r0, r1)
			tr.span(id, "standby.catchup", r1, r2)
			tr.span(id, "imcs.repopulate", r2, r3)
		}
		p.attempted++
		if err := e.checkServing(e.sby); err != nil {
			p.fail(log, "after restart %d: %v", k, err)
		}
		if err := e.checkServing(stale); err != nil {
			p.staleMismatches++
			fmt.Fprintf(log, "adgperf: pre-restart session after restart %d: %v\n", k, err)
		}
	}
}

// checkServing compares a grouped aggregate on a standby session with the
// row store at the same snapshot.
func (e *env) checkServing(sess *dbimadg.Session) error {
	q, err := compile(sqlTotal, e.sbyTbl, nil)
	if err != nil {
		return fmt.Errorf("compile: %w", err)
	}
	snap := sess.Snapshot()
	got, err := sess.QueryAt(q, snap)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	want, err := e.rowStoreRun(q, snap)
	if err != nil {
		return fmt.Errorf("row-store query: %w", err)
	}
	if !sameResult(got, want, e.sbyTbl) {
		return fmt.Errorf("at SCN %d: IMCS %s, row store %s", snap, describe(got), describe(want))
	}
	return nil
}
