package checkpoint

import (
	"sync"
	"sync/atomic"
	"time"
)

// Capture produces one consistent capture of the column store: the checkpoint
// SCN, the apply and journal watermarks, and the copy-on-write unit images.
// The standby implements it under its shared quiesce lock, so the SCN is a
// published QuerySCN whose invalidation flushes have all landed — scans and
// redo apply keep running throughout (the capture itself is one bitmap copy
// per unit; encoding and file I/O happen outside any lock).
type Capture func() (Snapshot, error)

// RunnerConfig tunes the background checkpointer.
type RunnerConfig struct {
	Dir      string
	Interval time.Duration
	// Retain keeps the newest N checkpoint files (default 2: the newest plus
	// one fallback in case the newest is damaged).
	Retain  int
	Capture Capture
}

// RunnerStats is a snapshot of the checkpointer's health for observability.
type RunnerStats struct {
	Cycles    int64 // checkpoint attempts (progress signal for the watchdog)
	Written   int64 // successful checkpoints
	Failures  int64
	LastSCN   uint64
	LastUnits int
	LastBytes int64
	LastTook  time.Duration
	LastUnix  int64 // completion time of the last successful checkpoint
	LastErr   string
	// TotalBytes is the cumulative snapshot volume written.
	TotalBytes int64
}

// Runner is the background checkpointer: every Interval it captures the store
// and writes one checkpoint file, pruning old ones. It is created stopped;
// Start and Stop bracket the goroutine so restarts never leak it.
type Runner struct {
	cfg RunnerConfig

	runMu sync.Mutex // serializes checkpoint cycles (ticker vs Checkpoint)

	mu      sync.Mutex
	started bool
	stop    chan struct{}
	done    chan struct{}

	cycles     atomic.Int64
	written    atomic.Int64
	failures   atomic.Int64
	totalBytes atomic.Int64

	lastMu    sync.Mutex
	lastMeta  Meta
	lastTook  time.Duration
	lastUnix  int64
	lastErr   error
	lastUnits int
}

// NewRunner returns a stopped runner.
func NewRunner(cfg RunnerConfig) *Runner {
	if cfg.Retain <= 0 {
		cfg.Retain = 2
	}
	return &Runner{cfg: cfg}
}

// Start launches the checkpoint loop. No-op when already running or when the
// interval is non-positive (checkpointing on demand only).
func (r *Runner) Start() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.started || r.cfg.Interval <= 0 {
		return
	}
	r.started = true
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go r.loop(r.stop, r.done)
}

// Stop halts the loop and waits for an in-flight checkpoint to finish.
// Idempotent; the runner can be started again afterwards.
func (r *Runner) Stop() {
	r.mu.Lock()
	if !r.started {
		r.mu.Unlock()
		return
	}
	r.started = false
	stop, done := r.stop, r.done
	r.mu.Unlock()
	close(stop)
	<-done
}

func (r *Runner) loop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(r.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			_, _ = r.Checkpoint()
		}
	}
}

// Checkpoint runs one capture → encode → write → prune cycle synchronously
// and returns the installed checkpoint's metadata. Cycles are serialized:
// a manual call concurrent with the ticker simply waits its turn.
func (r *Runner) Checkpoint() (Meta, error) {
	r.runMu.Lock()
	defer r.runMu.Unlock()
	start := time.Now()
	r.cycles.Add(1)
	snap, err := r.cfg.Capture()
	var meta Meta
	if err == nil {
		meta, err = Write(r.cfg.Dir, snap.Meta, snap.Images)
	}
	took := time.Since(start)
	r.lastMu.Lock()
	r.lastErr = err
	if err == nil {
		r.lastMeta = meta
		r.lastTook = took
		r.lastUnix = time.Now().UnixNano()
		r.lastUnits = meta.Units
	}
	r.lastMu.Unlock()
	if err != nil {
		r.failures.Add(1)
		return Meta{}, err
	}
	r.written.Add(1)
	r.totalBytes.Add(meta.Bytes)
	// Write returned, so the new file is durable: the older snapshots it
	// supersedes can go.
	Prune(r.cfg.Dir, r.cfg.Retain)
	return meta, nil
}

// Cycles returns completed checkpoint attempts; it is the watchdog's progress
// signal for the checkpointer stage.
func (r *Runner) Cycles() int64 { return r.cycles.Load() }

// Stats returns a consistent snapshot of the runner's counters.
func (r *Runner) Stats() RunnerStats {
	r.lastMu.Lock()
	defer r.lastMu.Unlock()
	st := RunnerStats{
		Cycles:     r.cycles.Load(),
		Written:    r.written.Load(),
		Failures:   r.failures.Load(),
		LastSCN:    uint64(r.lastMeta.SCN),
		LastUnits:  r.lastUnits,
		LastBytes:  r.lastMeta.Bytes,
		LastTook:   r.lastTook,
		LastUnix:   r.lastUnix,
		TotalBytes: r.totalBytes.Load(),
	}
	if r.lastErr != nil {
		st.LastErr = r.lastErr.Error()
	}
	return st
}
