package metrics_test

import (
	"fmt"
	"slices"
	"testing"

	"persistmem/internal/hotstock"
	"persistmem/internal/metrics"
	"persistmem/internal/ods"
	"persistmem/internal/sim"
)

// runInstrumented executes a small hot-stock run with span metrics
// attached and the protocol events retained.
func runInstrumented(seed int64, d ods.Durability) (*metrics.Registry, hotstock.Result) {
	reg := metrics.NewRegistry()
	reg.EnableHistory()
	opts := ods.DefaultOptions()
	opts.Seed = seed
	opts.Durability = d
	opts.Metrics = reg
	if d == ods.PMDirectDurability {
		opts.PMRegionBytes = 8 << 20
	}
	res := hotstock.Run(opts, hotstock.Params{
		Drivers:          2,
		RecordsPerDriver: 64,
		InsertsPerTxn:    8,
	})
	return reg, res
}

// TestPhaseDecompositionTilesCommitLatency is the tiling property: across
// seeds and durability configs, every committed transaction folds into the
// ladder, and the phase sums add up exactly — to the tick — to the sum of
// the client-visible begin→commit intervals. No gaps, no overlaps, no
// sampling error.
func TestPhaseDecompositionTilesCommitLatency(t *testing.T) {
	for _, d := range []ods.Durability{ods.DiskDurability, ods.PMDurability, ods.PMDirectDurability} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", d, seed), func(t *testing.T) {
				reg, res := runInstrumented(seed, d)
				cp := reg.Commit

				committed := int64(0)
				for _, dr := range res.Drivers {
					committed += int64(dr.Txns)
					if dr.Errors != 0 {
						t.Fatalf("driver %d saw %d errors; tiling needs a clean run", dr.Driver, dr.Errors)
					}
				}
				if committed == 0 {
					t.Fatal("no transactions committed")
				}
				if got := cp.TotalStat().Count; got != committed || cp.Committed.Value() != committed {
					t.Fatalf("folded %d decompositions, ledger %d, committed %d", got, cp.Committed.Value(), committed)
				}
				if n := cp.Incomplete.Value(); n != 0 {
					t.Fatalf("%d transactions folded incomplete", n)
				}
				if n := cp.Open(); n != 0 {
					t.Fatalf("%d transactions left open after the run", n)
				}
				for _, ps := range cp.PhaseStats() {
					if ps.Count != committed {
						t.Fatalf("phase %s has %d samples, want %d", ps.Name, ps.Count, committed)
					}
				}

				// The aggregate histograms must tile too: Σ phase sums ==
				// total sum (exact int64 arithmetic, not bucket estimates).
				var phaseSum sim.Time
				for _, ps := range cp.PhaseStats() {
					phaseSum += ps.Sum
				}
				if total := cp.TotalStat().Sum; phaseSum != total {
					t.Fatalf("aggregate phase sums %v != total %v", phaseSum, total)
				}

				if errs := reg.CheckConservation(); len(errs) != 0 {
					t.Fatalf("conservation violated: %v", errs)
				}
			})
		}
	}
}

// TestDecompositionDeterministic pins that two identically-seeded
// instrumented runs produce byte-identical decompositions and protocol
// events: metering must not perturb or randomize the simulation.
func TestDecompositionDeterministic(t *testing.T) {
	regA, _ := runInstrumented(7, ods.DiskDurability)
	regB, _ := runInstrumented(7, ods.DiskDurability)
	a, b := regA.Commit, regB.Commit
	if !slices.Equal(a.PhaseStats(), b.PhaseStats()) || a.TotalStat() != b.TotalStat() {
		t.Fatalf("decompositions differ between identical runs:\n%+v\n%+v", a.PhaseStats(), b.PhaseStats())
	}
	if a.Len() == 0 || !slices.Equal(a.Events(), b.Events()) {
		t.Fatalf("retained events differ between identical runs (%d vs %d)", a.Len(), b.Len())
	}
}
