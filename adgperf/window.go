package main

import (
	"math/rand"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"dbimadg"
	"dbimadg/internal/obs"
)

const (
	// pollEvery is the observer's target QuerySCN polling period while
	// commits wait to become visible (it idles otherwise); the achieved mean
	// is reported as bench.observer_us, the resolution of the
	// commit-to-visible measurement.
	pollEvery = 200 * time.Microsecond
	// gaugeEvery is how often the observer samples the program's queue and
	// backlog gauges during the window.
	gaugeEvery = 20 * time.Millisecond
)

// sampledGauges are the program gauges the observer averages (or maxes)
// over the window.
var sampledGauges = []string{
	"standby_apply_queue_depth",
	"standby_apply_lag_scn",
	"standby_journal_resident_txns",
	"standby_committable_pending",
	"imcs_invalid_rows",
	"imcs_population_pending",
}

// oracleSample is a window scan kept for re-execution on the row store at
// the same snapshot after the window.
type oracleSample struct {
	kind int
	q    *dbimadg.Query
	snap dbimadg.SCN
	res  *dbimadg.Result
	exec time.Duration // time inside the IMCS query call
}

// profileTotals sums the ScanProfiles of a traced window's scans.
type profileTotals struct {
	queries                            int64
	unitsPruned, unitsScanned, unitsFB int64
	rowsIMCS, rowsFallback, resultRows int64
	batches, morsels, steals           int64
	busyNanos, capacityNanos           int64
}

func (p *profileTotals) add(prof *dbimadg.ScanProfile) {
	p.queries++
	p.unitsPruned += prof.UnitsPruned
	p.unitsScanned += prof.UnitsScanned
	p.unitsFB += prof.UnitsFallback
	p.rowsIMCS += prof.RowsIMCS
	p.rowsFallback += prof.RowsInvalid + prof.RowsTail + prof.RowsRowStore
	p.resultRows += prof.ResultRows
	p.batches += prof.Batches
	p.morsels += prof.Morsels
	p.steals += prof.Steals
	for _, w := range prof.Workers {
		p.busyNanos += w.BusyNanos
	}
	p.capacityNanos += prof.WallNanos * int64(max(prof.Parallel, 1))
}

// runtimeSample is the process and Go runtime state at one instant.
type runtimeSample struct {
	at            time.Time
	cpu           time.Duration // user + system CPU of the process
	gcCPU, allCPU float64       // runtime/metrics CPU classes, seconds
	pauseTotal    time.Duration
	numGC         uint32
	totalAlloc    uint64
}

func sampleRuntime() runtimeSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	ms := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(ms)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return runtimeSample{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:      ms[0].Value.Float64(),
		allCPU:     ms[1].Value.Float64(),
		pauseTotal: time.Duration(mem.PauseTotalNs),
		numGC:      mem.NumGC,
		totalAlloc: mem.TotalAlloc,
	}
}

// windowResult is everything measured in one open-loop window.
type windowResult struct {
	wall time.Duration

	scanLat    [numScanKinds]samples
	scanAll    samples
	commitLat  samples
	c2v        samples
	late       samples
	dmlCall    samples
	commitCall samples
	parse      samples

	attempted, failed int64
	txns              int64

	oracle   []oracleSample
	profiles profileTotals
	gauges   map[string][]float64
	polls    int64
	pollWall time.Duration // time spent in polls, for the achieved period

	obsBefore, obsAfter     obs.Snapshot
	statsBefore, statsAfter dbimadg.ClusterStats
	rtBefore, rtAfter       runtimeSample
	heapMB                  float64
	storeMemMB              float64
}

// visibility tracks committed transactions until the benchmark sees the
// standby's QuerySCN cover them. One DML client commits in SCN order, so the
// pending list is sorted.
type visibility struct {
	mu      sync.Mutex
	pending []pendingCommit
	lat     samples
	added   chan struct{} // signalled when a commit joins an empty list
}

type pendingCommit struct {
	at       dbimadg.SCN
	returned time.Time
}

func (v *visibility) add(at dbimadg.SCN, returned time.Time) {
	v.mu.Lock()
	v.pending = append(v.pending, pendingCommit{at, returned})
	v.mu.Unlock()
	select {
	case v.added <- struct{}{}:
	default:
	}
}

// observe resolves every pending commit covered by querySCN, seen at now.
func (v *visibility) observe(querySCN dbimadg.SCN, now time.Time) {
	v.mu.Lock()
	n := 0
	for n < len(v.pending) && v.pending[n].at <= querySCN {
		v.lat.addDur(now.Sub(v.pending[n].returned))
		n++
	}
	v.pending = v.pending[n:]
	v.mu.Unlock()
}

func (v *visibility) outstanding() int {
	v.mu.Lock()
	defer v.mu.Unlock()
	return len(v.pending)
}

// runWindow drives the workload's two open-loop clients for d and returns
// what it measured. Traced windows also collect scan profiles and spans.
func (e *env) runWindow(ws workloadSpec, seed int64, d time.Duration, tr *tracer) *windowResult {
	w := &windowResult{gauges: make(map[string][]float64)}
	reg := e.c.Observability()
	vis := &visibility{added: make(chan struct{}, 1)}
	var mu sync.Mutex // guards w's counters and sample sets across the clients

	quiesce()
	w.obsBefore = reg.Snapshot()
	w.statsBefore = e.c.Stats()
	w.rtBefore = sampleRuntime()
	start := time.Now().Add(time.Millisecond)
	end := start.Add(d)

	var clients sync.WaitGroup
	clients.Add(2)
	go func() { // DML client on the primary
		defer clients.Done()
		rng := rand.New(rand.NewSource(seed*7919 + 1))
		var dmlDur, commitDur time.Duration
		var at dbimadg.SCN
		openLoop(realClock{}, start, end, ws.DMLRate, func(int) error {
			var err error
			dmlDur, commitDur, at, err = e.dml(rng)
			return err
		}, func(_ int, t opTiming, err error) {
			mu.Lock()
			defer mu.Unlock()
			w.attempted++
			w.txns++
			w.late.addDur(t.Late())
			if err != nil {
				w.failed++
				w.commitLat.addFailed()
				w.c2v.addFailed()
				return
			}
			vis.add(at, t.Done)
			w.commitLat.addDur(t.Latency())
			w.dmlCall.addDur(dmlDur)
			w.commitCall.addDur(commitDur)
			if tr != nil {
				id := tr.span(0, "txn", t.Began, t.Done)
				tr.span(id, "txn.dml", t.Began, t.Began.Add(dmlDur))
				tr.span(id, "txn.commit", t.Done.Add(-commitDur), t.Done)
			}
		})
	}()
	go func() { // scan client on the standby
		defer clients.Done()
		stride := oracleStride(int(d.Seconds() * ws.ScanRate))
		rng := rand.New(rand.NewSource(seed*7919 + 2))
		var (
			kind     int
			parseDur time.Duration
			execDur  time.Duration
			res      *dbimadg.Result
			q        *dbimadg.Query
			snap     dbimadg.SCN
		)
		openLoop(realClock{}, start, end, ws.ScanRate, func(i int) error {
			var sql string
			var binds map[string]dbimadg.Bind
			kind, sql, binds = scanStatement(i, rng)
			t0 := time.Now()
			var err error
			if q, err = compile(sql, e.sbyTbl, binds); err != nil {
				return err
			}
			t1 := time.Now()
			parseDur = t1.Sub(t0)
			if tr != nil {
				var prof *dbimadg.ScanProfile
				if res, prof, err = e.sby.QueryProfiled(q); err == nil {
					snap = prof.SnapSCN
					mu.Lock()
					w.profiles.add(prof)
					mu.Unlock()
				}
			} else {
				snap = e.sby.Snapshot()
				res, err = e.sby.QueryAt(q, snap)
			}
			execDur = time.Since(t1)
			return err
		}, func(i int, t opTiming, err error) {
			mu.Lock()
			defer mu.Unlock()
			w.attempted++
			w.late.addDur(t.Late())
			if err != nil {
				w.failed++
				w.scanLat[kind].addFailed()
				w.scanAll.addFailed()
				return
			}
			w.scanLat[kind].addDur(t.Latency())
			w.scanAll.addDur(t.Latency())
			w.parse.addDur(parseDur)
			if oracleSampled(i, stride) {
				w.oracle = append(w.oracle, oracleSample{kind: kind, q: q, snap: snap, res: res, exec: execDur})
			}
			if tr != nil {
				id := tr.span(0, "scan", t.Began, t.Done)
				tr.span(id, "sqlmini.compile", t.Began, t.Began.Add(parseDur))
				tr.span(id, "scan.query", t.Done.Add(-execDur), t.Done)
			}
		})
	}()

	stop := make(chan struct{})
	var observer sync.WaitGroup
	observer.Add(1)
	go func() { // observer: commit visibility and gauge sampling
		defer observer.Done()
		nextGauge := start
		for {
			if vis.outstanding() == 0 {
				// Nothing to time: sleep until a commit or a gauge sample
				// is due instead of polling.
				var gaugeDue <-chan time.Time
				if nextGauge.Before(end) {
					gaugeDue = time.After(time.Until(nextGauge))
				}
				select {
				case <-stop:
					return
				case <-vis.added:
				case <-gaugeDue:
				}
			} else {
				select {
				case <-stop:
					return
				default:
				}
				t0 := time.Now()
				time.Sleep(pollEvery)
				now := time.Now()
				vis.observe(e.master.QuerySCN(), now)
				mu.Lock()
				w.polls++
				w.pollWall += now.Sub(t0)
				mu.Unlock()
			}
			if now := time.Now(); !now.Before(nextGauge) {
				if !now.Before(end) {
					nextGauge = end // no gauge samples after the window
					continue
				}
				nextGauge = now.Add(gaugeEvery)
				for _, g := range sampledGauges {
					v, _ := reg.GaugeValue(g) // an unregistered gauge reads as 0
					mu.Lock()
					w.gauges[g] = append(w.gauges[g], v)
					mu.Unlock()
				}
			}
		}
	}()

	clients.Wait()
	w.rtAfter = sampleRuntime()
	w.wall = w.rtAfter.at.Sub(start)
	w.obsAfter = reg.Snapshot()
	w.statsAfter = e.c.Stats()

	grace := time.Now().Add(visibilityGrace * time.Second)
	for vis.outstanding() > 0 && time.Now().Before(grace) {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	observer.Wait()

	vis.mu.Lock()
	w.c2v = append(w.c2v, vis.lat...)
	for range vis.pending { // committed but never visible
		w.failed++
		w.c2v.addFailed()
	}
	vis.mu.Unlock()

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	w.heapMB = float64(mem.HeapAlloc) / (1 << 20)
	w.storeMemMB = float64(e.c.Stats().StandbyStore.MemBytes) / (1 << 20)
	return w
}
