package recovery

import (
	"fmt"
	"strconv"

	"persistmem/internal/cluster"
	"persistmem/internal/ods"
	"persistmem/internal/pmclient"
	"persistmem/internal/pmm"
	"persistmem/internal/sim"
	"persistmem/internal/tmf"
)

// ScenarioResult is a crashed store plus the ground truth recovery must
// reproduce.
type ScenarioResult struct {
	Store *ods.Store
	// Committed keys must be present after recovery; InFlight must not.
	Committed, InFlight []uint64
	// Errs records workload failures before the crash (should be empty).
	Errs []error
}

// ScenarioOptions is the store every crash scenario builds — RunScenario
// here, each faultinject matrix cell, and the set-up allocation budget in
// ods: one 4-partition TRADES file on four data volumes, data retained
// so recovery has bytes to read, and PM regions wide enough for the
// largest committed scenario's log.
func ScenarioOptions(d ods.Durability, seed int64) ods.Options {
	opts := ods.DefaultOptions()
	opts.Seed = seed
	opts.Durability = d
	opts.RetainData = true
	opts.Files = []ods.FileSpec{{Name: "TRADES", Partitions: 4}}
	opts.DataVolumes = 4
	opts.DataVolumeBytes = 256 << 20
	opts.AuditVolumeBytes = 256 << 20
	opts.PMRegionBytes = 32 << 20
	return opts
}

// RowBodyMax is the longest body AppendRowBody appends: "row-" and the 20
// digits of the largest uint64.
const RowBodyMax = len("row-") + 20

// AppendRowBody appends the body every crash scenario commits under key,
// "row-<key>", to dst. A checker comparing against it with a stack buffer of
// RowBodyMax bytes allocates nothing.
func AppendRowBody(dst []byte, key uint64) []byte {
	return strconv.AppendUint(append(dst, "row-"...), key, 10)
}

// rowSlabBytes is the size of one RowBodies slab.
const rowSlabBytes = 4 << 10

// RowBodies hands out the bodies a crash scenario inserts, each
// AppendRowBody's bytes, carved from shared 4 KiB slabs: one allocation per
// couple of hundred inserts where a body of its own cost one an insert. The
// zero value is ready to use.
type RowBodies struct{ slab []byte }

// Next returns key's body. It is capacity-clipped, so an append to it
// copies it rather than reaching into the next body of the slab.
func (b *RowBodies) Next(key uint64) []byte {
	if cap(b.slab)-len(b.slab) < RowBodyMax {
		b.slab = make([]byte, 0, rowSlabBytes)
	}
	n := len(b.slab)
	b.slab = AppendRowBody(b.slab, key)
	return b.slab[n:len(b.slab):len(b.slab)]
}

// RunScenario builds a data-retaining store with the given durability,
// commits txns transactions of 4 inserts each into a single 4-partition
// file, leaves a fifth-plus-one transaction in flight, and power-fails
// the whole node (CPUs and PM devices). The returned store is powered off
// and ready for FromDisk/FromPM measurement.
func RunScenario(d ods.Durability, txns int, seed int64) ScenarioResult {
	return runScenario(ScenarioOptions(d, seed), txns)
}

// runScenario is RunScenario's workload and crash on a store built from
// opts.
func runScenario(opts ods.Options, txns int) ScenarioResult {
	s := ods.Build(opts)

	res := ScenarioResult{Store: s, Committed: make([]uint64, 0, 4*txns)}
	crashNow := s.Eng.NewChan("crash")
	s.Cl.CPU(3).Spawn("workload", func(p *cluster.Process) {
		se := s.NewSession(p)
		var bodies RowBodies
		for i := 0; i < txns; i++ {
			txn, err := se.Begin()
			if err != nil {
				res.Errs = append(res.Errs, fmt.Errorf("begin %d: %w", i, err))
				return
			}
			for j := 0; j < 4; j++ {
				key := uint64(i*10 + j + 1)
				txn.InsertAsync("TRADES", key, bodies.Next(key))
				res.Committed = append(res.Committed, key)
			}
			if err := txn.Commit(); err != nil {
				res.Errs = append(res.Errs, fmt.Errorf("commit %d: %w", i, err))
				return
			}
		}
		// One more transaction, inserted but never committed.
		txn, err := se.Begin()
		if err != nil {
			res.Errs = append(res.Errs, fmt.Errorf("begin in-flight txn: %w", err))
			return
		}
		for j := 0; j < 4; j++ {
			key := uint64(1000000 + j)
			txn.InsertAsync("TRADES", key, []byte("uncommitted"))
			res.InFlight = append(res.InFlight, key)
		}
		txn.WaitPending()
		crashNow.TrySend(nil)
		p.Wait(sim.Minute) // the crash kills us first
	})
	s.Eng.Spawn("crasher", func(p *sim.Proc) {
		crashNow.Recv(p)
		s.PowerFail()
	})
	s.Eng.Run()
	return res
}

// Reboot powers the crashed store's node and PM devices back on and — in
// PM modes — restarts the PM manager (recovering the volume's region
// table), so FromPM can reach the log regions. In disk mode nothing
// beyond the CPUs needs restarting: FromDisk reads the audit volumes
// directly. Reboot is idempotent, so RecoverPM after an explicit Reboot
// (or RecoverDisk after RecoverPM's implicit one) neither wipes the live
// registry nor starts a second PM manager pair.
func (r ScenarioResult) Reboot() {
	s := r.Store
	if s.NPMUPrimary != nil {
		s.NPMUPrimary.Restore()
		if s.NPMUMirror != s.NPMUPrimary {
			s.NPMUMirror.Restore()
		}
	}
	if !s.Cl.AllUp() {
		s.Cl.RestorePower()
	}
	if s.NPMUPrimary != nil && s.Cl.LookupCPU(ods.PMVolumeName) == -1 {
		pmm.Start(s.Cl, ods.PMVolumeName, 0, 1, s.NPMUPrimary, s.NPMUMirror)
	}
}

// RecoverDisk reboots and runs FromDisk against the scenario's audit
// volumes.
func (r ScenarioResult) RecoverDisk(opts Options) (Report, *Rebuilt, error) {
	r.Reboot()
	var rep Report
	var rb *Rebuilt
	var err error
	r.Store.Cl.CPU(2).Spawn("recover-disk", func(p *cluster.Process) {
		rep, rb, err = FromDisk(p, r.Store.AuditVolumes, opts)
	})
	r.Store.Eng.Run()
	return rep, rb, err
}

// RecoverPM reboots and runs FromPM against the scenario's log regions,
// with (useTCB) or without fine-grained control blocks.
func (r ScenarioResult) RecoverPM(opts Options, useTCB bool) (Report, *Rebuilt, error) {
	r.Reboot()
	var rep Report
	var rb *Rebuilt
	var err error
	r.Store.Cl.CPU(2).Spawn("recover-pm", func(p *cluster.Process) {
		vol := pmclient.Attach(r.Store.Cl, ods.PMVolumeName)
		regions := r.Store.LogRegions()
		tcb := ""
		if useTCB {
			tcb = tmf.TCBRegionName
		}
		rep, rb, err = FromPM(p, vol, regions, tcb, opts)
	})
	r.Store.Eng.Run()
	return rep, rb, err
}
