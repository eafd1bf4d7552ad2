package main

import (
	"fmt"

	"dbimadg/internal/workload"
)

// Constants shared by every workload. They are properties of the workload,
// not of the host, so a result from a faster machine is still the same test.
const (
	// tableRows is the C101 table size loaded at set-up.
	tableRows = 50_000
	// loadBatch is the rows per set-up transaction.
	loadBatch = 512
	// setupRepeats is how many times an untraced run sets up a cluster;
	// setup_s is their median and the last one serves the window.
	setupRepeats = 3
	// drainBursts unpaced bursts of drainTxns transactions each measure
	// standby.drain_cvs_s (their median).
	drainBursts = 9
	drainTxns   = 4_000
	// scanBurstCycles scan cycles (one Q1, Q2 and GROUP BY each) run back to
	// back, with no DML, before the traced run's window;
	// scan.cpu_ms_per_query is their process CPU per query.
	scanBurstCycles = 100
	// restartCycles is the number of checkpoint → churn → restart cycles
	// behind checkpoint.serving_ms_p50, and restartChurn the updates committed between
	// each checkpoint and its restart.
	restartCycles = 5
	restartChurn  = 500
	// oracleCycles is how many scan cycles (one Q1, Q2 and GROUP BY each)
	// of a window are re-checked against a row-store-only executor at the
	// same snapshot; they are spread evenly over the window.
	oracleCycles = 10
	// visibilityGrace is how long after the window a commit may take to
	// become visible on the standby before it counts as failed.
	visibilityGrace = 10
)

// workloadSpec is one fixed traffic mix. Both clients are open loop: the DML
// client on the primary and the scan client on the standby each issue
// requests on a fixed schedule, whether or not earlier ones have finished.
// Every workload ships redo over loopback TCP with the binary wire codec.
type workloadSpec struct {
	Name string
	// DMLRate is single-row transactions per second on the primary.
	DMLRate float64
	// InsertPct is the share of DML transactions that insert a new row; the
	// rest update n1 or c1 of an existing row.
	InsertPct int
	// ScanRate is standby scans per second, cycling Q1, Q2 and a GROUP BY.
	ScanRate float64
}

var workloads = []workloadSpec{
	{
		// The scan side does nearly all the work and the redo side idles.
		// The churn is the paper's per-row ratio, 4000 ops/s on 6M rows,
		// scaled to tableRows.
		Name:    "scan_offload",
		DMLRate: 4000 * tableRows / 6e6,
		// The paper's insert share (workload.UpdateInsert: 25% inserts,
		// 40% updates, 34% fetches, 1% scans). The client issues no
		// fetches, so inserts are 25% of its transactions, not 25/65.
		InsertPct: workload.UpdateInsert.InsertPct,
		ScanRate:  40,
	},
	{
		// The redo codec, transport, apply, mining and flush do the work;
		// a light scan probe sees scans under heavy invalidation.
		Name:    "redo_ingest",
		DMLRate: 1000,
		// Update-only (the paper's UpdateOnly mix): the table keeps its
		// size, so the window measures a steady state instead of a growing
		// unpopulated tail that scans must read from the row store.
		InsertPct: 0,
		ScanRate:  10,
	},
}

func findWorkload(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("unknown workload %q", name)
}
