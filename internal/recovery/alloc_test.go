package recovery

import (
	"bytes"
	"runtime"
	"testing"

	"persistmem/internal/btree"
	"persistmem/internal/ods"
)

// recoveryBudgetBytes is the most a 4000-transaction recovery (16 000 rows,
// the size of the benchmark fault-recover workload's three) may allocate per
// row it recovers, on each of recoveryPaths. Today a row costs 93 B on disk,
// 94 B on PM scan, 99 B on PM + TCBs and 124 B on PM direct: its share of the
// kept stream segments (56 B, and 81 B from PM direct's per-DP2 logs, which
// also hold a commit record a DP2), of its trail's B-tree (33 B) and of the
// read-ahead's key filter; redoing a record on a trail's commit, in a retry
// over the deferred ones, adds nothing a record (125 B on PM direct while
// those records waited for the barrier). It cost 121 B on the first three
// and 217 B on PM direct while the analysis kept an outcome map a trail and
// a seen set where it now keeps one byte a transaction, and while the
// workers' redo shared one tree a file. It cost 130–131 B while redo's seen set grew from empty
// instead of being sized from the analysis, 145–146 B while the B-tree's
// leaves split half full and regrew by append, and 522–523 B while analysis
// kept every data record by value in a slice that grew a quarter at a time
// and redo cloned each body; the by-value slice alone reads 508.
const recoveryBudgetBytes = 130

// recoverScenario runs the path's recovery of a crashed scenario.
func recoverScenario(t *testing.T, res ScenarioResult, d ods.Durability, useTCB bool) *Rebuilt {
	t.Helper()
	var rb *Rebuilt
	var err error
	if d == ods.DiskDurability {
		_, rb, err = res.RecoverDisk(Options{})
	} else {
		_, rb, err = res.RecoverPM(Options{}, useTCB)
	}
	if err != nil {
		t.Fatal(err)
	}
	return rb
}

// TestRecoveryAllocationBudget holds what a recovery allocates per row it
// recovers: reboot, the reads, analysis, redo and the image, with the
// process's spare read buffer warm. The spares are drained first: a test
// that ran before this one may have left the pool full of buffers of other
// sizes, and the warm-up must be what fills it.
func TestRecoveryAllocationBudget(t *testing.T) {
	drainSpares()
	warm := RunScenario(ods.DiskDurability, 4, 1) // leaves a spare read buffer per worker behind
	recoverScenario(t, warm, ods.DiskDurability, false)
	warm.Store.Eng.Shutdown()
	for _, tc := range recoveryPaths {
		t.Run(tc.name, func(t *testing.T) {
			res := RunScenario(tc.d, 4000, 1)
			defer res.Store.Eng.Shutdown()
			if len(res.Errs) > 0 {
				t.Fatalf("workload errors: %v", res.Errs)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			rb := recoverScenario(t, res, tc.d, tc.useTCB)
			runtime.ReadMemStats(&after)
			if rb.Rows() != len(res.Committed) {
				t.Fatalf("%d rows recovered, %d committed: the budget only means something over a whole image", rb.Rows(), len(res.Committed))
			}
			perRow := float64(after.TotalAlloc-before.TotalAlloc) / float64(rb.Rows())
			t.Logf("%.0f bytes per recovered row, %d rows", perRow, rb.Rows())
			if perRow > recoveryBudgetBytes {
				t.Errorf("a recovered row costs %.0f bytes, budget %d: recovery copies what it already owns", perRow, recoveryBudgetBytes)
			}
		})
	}
}

// TestRecoveredRowsOutliveTheScratch holds that a recovered row's body is
// recovery's own stream copy and never one of the process's spare read
// buffers: once somebody has filled every spare with 0xFF, and once a second
// recovery of a shorter trail has read into them, every row of the first
// image still reads "row-<key>". Appending to a returned body must not reach
// the next row's bytes either.
func TestRecoveredRowsOutliveTheScratch(t *testing.T) {
	for _, tc := range recoveryPaths {
		t.Run(tc.name, func(t *testing.T) {
			first := RunScenario(tc.d, 60, 1)
			defer first.Store.Eng.Shutdown()
			rb := recoverScenario(t, first, tc.d, tc.useTCB)

			if scribbleSpares() == 0 {
				t.Fatal("the recovery handed on no read buffer")
			}
			checkGroundTruth(t, rb, first)
			second := RunScenario(tc.d, 12, 2)
			defer second.Store.Eng.Shutdown()
			recoverScenario(t, second, tc.d, tc.useTCB)

			checkGroundTruth(t, rb, first)
			if rb.Rows() != len(first.Committed) {
				t.Errorf("%d rows in the first image, %d committed", rb.Rows(), len(first.Committed))
			}

			// 128 bytes run past a body's CRC, a commit record and the next
			// insert's header into that insert's body.
			tail := bytes.Repeat([]byte{0xEE}, 128)
			for _, t := range rb.files["TRADES"] {
				if t != nil {
					t.Ascend(0, ^uint64(0), func(it btree.Item[[]byte]) bool {
						_ = append(it.Value, tail...)
						return true
					})
				}
			}
			checkGroundTruth(t, rb, first)
		})
	}
}
