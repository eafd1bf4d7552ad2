package dbimadg_test

import (
	"fmt"
	"testing"
	"time"

	"dbimadg"
	"dbimadg/internal/testutil"
)

// TestCommitVisibleWithoutBackstop sets the coordinator's backstop tick to an
// hour, so nothing on the redo path is timer-driven: a commit shipped over
// TCP becomes query-visible only if every hand-off — server, merger,
// coordinator, worklink flush, WaitForSCN — is woken by the state change it
// waits for. The two-thread primary exercises the merger's multi-stream wait
// (a record is released only once the other thread's heartbeat passes its
// SCN). Close must then leave no shipping handler blocked on its idle stream.
func TestCommitVisibleWithoutBackstop(t *testing.T) {
	for _, threads := range []int{1, 2} {
		t.Run(fmt.Sprintf("threads=%d", threads), func(t *testing.T) {
			cfg := quickCfg()
			cfg.UseTCP = true
			cfg.PrimaryInstances = threads
			cfg.CheckpointInterval = time.Hour
			c, err := dbimadg.Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			tbl, err := c.CreateTable(simpleSpec("T", 1))
			if err != nil {
				t.Fatal(err)
			}
			if err := c.AlterInMemory(1, "T", "", dbimadg.InMemoryAttr{Enabled: true, Service: dbimadg.ServiceStandbyOnly}); err != nil {
				t.Fatal(err)
			}
			s := tbl.Schema()
			for i := int64(0); i < 6; i++ {
				tx, err := c.PrimarySession(int(i) % threads).Begin()
				if err != nil {
					t.Fatal(err)
				}
				r := dbimadg.NewRow(s)
				r.Nums[s.Col(0).Slot()] = i
				if _, err := tx.Insert(tbl, r); err != nil {
					t.Fatal(err)
				}
				at, err := tx.Commit()
				if err != nil {
					t.Fatal(err)
				}
				if !c.StandbyMaster().WaitForSCN(at, time.Second) {
					t.Fatalf("commit %d at SCN %d not visible within 1s (QuerySCN %d)",
						i, at, c.StandbyMaster().QuerySCN())
				}
			}
			c.Close()
			testutil.NoGoroutineLeak(t, "dbimadg/")
		})
	}
}
