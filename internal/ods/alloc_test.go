package ods

import (
	"runtime"
	"testing"
)

// setupBudgetBytes is the most a store may allocate to be built and brought
// to idle. Set-up is a few hundred KB of process, queue and table state; an
// eager per-service buffer (the destager's 2 MiB per DP2 was 34 MB of a
// default store's set-up) blows straight through it.
const setupBudgetBytes = 2 << 20

// setupAlloc returns the bytes allocated by Build plus the first Run, which
// starts every service process and leaves the store idle.
func setupAlloc(opts Options) uint64 {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := Build(opts)
	s.Run(1)
	runtime.ReadMemStats(&after)
	s.Eng.Shutdown()
	return after.TotalAlloc - before.TotalAlloc
}

func TestStoreSetupAllocationBudget(t *testing.T) {
	// The 4-DP2 store every fault-matrix cell and recovery scenario builds.
	faultMatrix := func(d Durability) Options {
		opts := DefaultOptions()
		opts.Durability = d
		opts.RetainData = true
		opts.Files = []FileSpec{{Name: "TRADES", Partitions: 4}}
		opts.DataVolumes = 4
		opts.DataVolumeBytes = 256 << 20
		opts.AuditVolumeBytes = 256 << 20
		opts.NPMUBytes = 256 << 20
		return opts
	}
	withDurability := func(d Durability) Options {
		opts := DefaultOptions()
		opts.Durability = d
		if d == PMDirectDurability {
			opts.NPMUBytes = 1 << 30 // 16 per-DP2 log regions
		}
		return opts
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"default 16-DP2 store, disk", withDurability(DiskDurability)},
		{"default 16-DP2 store, pm", withDurability(PMDurability)},
		{"default 16-DP2 store, pmdirect", withDurability(PMDirectDurability)},
		{"fault-matrix 4-DP2 store, disk", faultMatrix(DiskDurability)},
		{"fault-matrix 4-DP2 store, pm", faultMatrix(PMDurability)},
		{"fault-matrix 4-DP2 store, pmdirect", faultMatrix(PMDirectDurability)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setupAlloc(tc.opts) // warm package-level state (type tables, pools)
			got := setupAlloc(tc.opts)
			t.Logf("set-up allocated %d KB", got>>10)
			if got > setupBudgetBytes {
				t.Errorf("Build + first Run allocated %d bytes, budget %d: something sizes a buffer before it has work for it", got, setupBudgetBytes)
			}
		})
	}
}
