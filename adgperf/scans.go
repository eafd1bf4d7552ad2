package main

import (
	"fmt"
	"math/rand"

	"dbimadg"
	"dbimadg/internal/scanengine"
	"dbimadg/internal/scanengine/scantest"
	"dbimadg/internal/sqlmini"
	"dbimadg/internal/workload"
)

// The scan client cycles through these statements; binds are drawn from the
// run's seed.
const (
	sqlQ1  = "SELECT * FROM C101 WHERE n1 = :v"
	sqlQ2  = "SELECT * FROM C101 WHERE c1 = :v"
	sqlAgg = "SELECT c2, COUNT(*), SUM(n1) FROM C101 WHERE n3 < :v GROUP BY c2"
	// sqlTotal is the end-of-run full-table comparison between the primary
	// and the standby at one SCN.
	sqlTotal = "SELECT c1, COUNT(*), SUM(n1), SUM(n2), MIN(n3), MAX(n4) FROM C101 GROUP BY c1"
)

const (
	kindQ1 = iota
	kindQ2
	kindAgg
	numScanKinds
)

var kindNames = [numScanKinds]string{"q1", "q2", "agg"}

// scanStatement returns the i-th statement of the scan cycle with its binds.
func scanStatement(i int, rng *rand.Rand) (kind int, sql string, binds map[string]dbimadg.Bind) {
	switch kind = i % numScanKinds; kind {
	case kindQ1:
		return kind, sqlQ1, map[string]dbimadg.Bind{"v": dbimadg.NumBind(rng.Int63n(workload.NumDomain))}
	case kindQ2:
		return kind, sqlQ2, map[string]dbimadg.Bind{"v": dbimadg.StrBind(strValue(rng.Int63n(workload.StrDomain)))}
	default:
		return kind, sqlAgg, map[string]dbimadg.Bind{"v": dbimadg.NumBind(100 + rng.Int63n(workload.NumDomain-200))}
	}
}

// compile is the sqlmini layer: parse and bind a statement against a table.
func compile(sql string, tbl *dbimadg.Table, binds map[string]dbimadg.Bind) (*dbimadg.Query, error) {
	st, err := sqlmini.Parse(sql)
	if err != nil {
		return nil, err
	}
	return st.Compile(tbl, binds)
}

// rowStoreRun executes q at snap through a scan executor with no column
// store attached: the paper's "without DBIM" path, used as the oracle.
func (e *env) rowStoreRun(q *dbimadg.Query, snap dbimadg.SCN) (*dbimadg.Result, error) {
	return scanengine.NewExecutor(e.master.Txns()).Run(q, snap)
}

// sameResult reports whether two results of a query on tbl are equivalent
// under the repository's canonical rendering of scan results.
func sameResult(a, b *dbimadg.Result, tbl *dbimadg.Table) bool {
	return scantest.Canonical(a, tbl.Schema()) == scantest.Canonical(b, tbl.Schema())
}

// describe summarises a result for a mismatch report.
func describe(r *dbimadg.Result) string {
	if r.Grouped != nil {
		return fmt.Sprintf("%d groups", len(r.Grouped.Groups))
	}
	return fmt.Sprintf("%d rows, aggregates %v", len(r.Rows), r.AggVals)
}

// oracleStride is how many scan cycles apart the oracle samples a window
// of planned scans, so that oracleCycles cycles spread over the window.
func oracleStride(planned int) int { return max(1, planned/numScanKinds/oracleCycles) }

// oracleSampled reports whether window scan i is re-checked: every scan of
// every stride-th cycle, so each statement kind is checked equally often.
func oracleSampled(i, stride int) bool { return (i/numScanKinds)%stride == 0 }
