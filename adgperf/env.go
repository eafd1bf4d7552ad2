package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"dbimadg"
	"dbimadg/internal/redo"
	"dbimadg/internal/rowstore"
	"dbimadg/internal/standby"
	"dbimadg/internal/transport"
	"dbimadg/internal/workload"
)

const (
	tenant    = dbimadg.TenantID(1)
	tableName = "C101"
)

// env is one open cluster with the loaded C101 table.
type env struct {
	c       *dbimadg.Cluster
	ws      workloadSpec
	dir     string
	pri     *dbimadg.Session
	sby     *dbimadg.Session
	master  *standby.Instance
	priTbl  *dbimadg.Table
	sbyTbl  *dbimadg.Table
	n1, c1  int // schema column indexes
	n1Slot  int
	c1Slot  int
	rows    int64 // identity high-water mark
	popTime time.Duration
}

// setup opens a cluster, loads tableRows wide rows drawn from seed, and
// waits until the standby has applied them and populated its column store.
// Its duration is the set-up time a user pays before the first query.
func setup(ws workloadSpec, seed int64, traced bool, dir string) (*env, time.Duration, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, fmt.Errorf("snapshot dir: %w", err)
	}
	quiesce()
	start := time.Now()
	cfg := dbimadg.Config{
		UseTCP:      true,
		SnapshotDir: dir,
		// Checkpoints are taken explicitly by the restart phase; the
		// background cadence would land at arbitrary points of the window.
		SnapshotInterval: time.Hour,
	}
	if traced {
		cfg.FreshnessSampleEvery = 1
	}
	c, err := dbimadg.Open(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("open: %w", err)
	}
	e := &env{c: c, ws: ws, dir: dir}
	if err := e.load(seed); err != nil {
		e.close()
		return nil, 0, err
	}
	popStart := time.Now()
	if !c.WaitPopulated(2 * time.Minute) {
		e.close()
		return nil, 0, fmt.Errorf("standby column store never settled")
	}
	e.popTime = time.Since(popStart)
	return e, time.Since(start), nil
}

func (e *env) load(seed int64) error {
	c := e.c
	tbl, err := c.CreateTable(workload.WideTableSpec(tableName, tenant))
	if err != nil {
		return fmt.Errorf("create table: %w", err)
	}
	err = c.AlterInMemory(tenant, tableName, "", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly})
	if err != nil {
		return fmt.Errorf("alter inmemory: %w", err)
	}
	e.priTbl = tbl
	e.pri = c.PrimarySession(0)
	schema := tbl.Schema()
	e.n1, e.c1 = schema.ColIndex("n1"), schema.ColIndex("c1")
	e.n1Slot, e.c1Slot = schema.Col(e.n1).Slot(), schema.Col(e.c1).Slot()
	rng := rand.New(rand.NewSource(seed))
	for lo := 0; lo < tableRows; lo += loadBatch {
		tx, err := e.pri.Begin()
		if err != nil {
			return err
		}
		for id := lo; id < lo+loadBatch && id < tableRows; id++ {
			if _, err := tx.Insert(tbl, workload.FillRow(schema, int64(id), rng)); err != nil {
				_ = tx.Abort()
				return fmt.Errorf("load insert: %w", err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			return fmt.Errorf("load commit: %w", err)
		}
	}
	e.rows = tableRows
	if !c.WaitStandbyCaughtUp(2 * time.Minute) {
		return fmt.Errorf("standby never caught up with the load")
	}
	if e.sbyTbl, err = c.StandbyTable(tenant, tableName); err != nil {
		return fmt.Errorf("standby table: %w", err)
	}
	e.sby = c.StandbySession()
	e.master = c.StandbyMaster()
	return nil
}

// quiesce collects garbage before a measured phase, so each phase starts
// from the same heap state instead of inheriting an earlier phase's
// collection debt.
func quiesce() { runtime.GC() }

func (e *env) close() {
	e.c.Close()
	_ = os.RemoveAll(e.dir) // snapshots of a closed cluster are never read again
}

// dml runs one single-row transaction: an insert of a new identity (in the
// workload's InsertPct share) or an update of n1 or c1 of an existing row,
// chosen by rng. It returns the time
// spent in the DML call and in Commit, and the commit SCN.
func (e *env) dml(rng *rand.Rand) (dmlDur, commitDur time.Duration, at dbimadg.SCN, err error) {
	tx, err := e.pri.Begin()
	if err != nil {
		return 0, 0, 0, err
	}
	t0 := time.Now()
	if rng.Intn(100) < e.ws.InsertPct {
		row := workload.FillRow(e.priTbl.Schema(), e.rows, rng)
		e.rows++
		_, err = tx.Insert(e.priTbl, row)
	} else {
		err = e.update(tx, rng)
	}
	t1 := time.Now()
	if err != nil {
		_ = tx.Abort()
		return t1.Sub(t0), 0, 0, err
	}
	at, err = tx.Commit()
	return t1.Sub(t0), time.Since(t1), at, err
}

// update changes n1 or c1 of a random existing row, the columns Q1 and Q2
// filter on.
func (e *env) update(tx *dbimadg.Txn, rng *rand.Rand) error {
	id := rng.Int63n(e.rows)
	if rng.Intn(2) == 0 {
		v := rng.Int63n(workload.NumDomain)
		return tx.UpdateByID(e.priTbl, id, []uint16{uint16(e.n1)}, func(r *rowstore.Row) { r.Nums[e.n1Slot] = v })
	}
	v := strValue(rng.Int63n(workload.StrDomain))
	return tx.UpdateByID(e.priTbl, id, []uint16{uint16(e.c1)}, func(r *rowstore.Row) { r.Strs[e.c1Slot] = v })
}

// strValue is the k-th value of the generated varchar domain (the values
// workload.FillRow draws from).
func strValue(k int64) string { return fmt.Sprintf("val_%04d", k) }

// inProcSource reattaches the primary's archived redo threads, the source a
// restarted standby replays from.
func (e *env) inProcSource() *transport.InProc {
	var streams []*redo.Stream
	for _, inst := range e.c.Primary().Instances() {
		streams = append(streams, inst.Stream())
	}
	return transport.NewInProc(streams...)
}
