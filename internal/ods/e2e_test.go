package ods_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"persistmem/internal/cluster"
	"persistmem/internal/ods"
	"persistmem/internal/pmclient"
	"persistmem/internal/pmm"
	"persistmem/internal/recovery"
	"persistmem/internal/tmf"
)

// e2eOp is one step of a generated workload script.
type e2eOp struct {
	Key    uint64
	Val    byte
	Commit bool // commit the txn after this op (else maybe abort)
	Abort  bool
}

// refModel mirrors what the store should contain.
type refModel struct {
	committed map[uint64][]byte
	staged    map[uint64][]byte
}

func newRef() *refModel {
	return &refModel{committed: make(map[uint64][]byte)}
}

// runScript executes the ops as transactions against a retaining store
// and the reference model simultaneously, returning the model and any
// fatal error.
func runScript(t *testing.T, d ods.Durability, ops []e2eOp, seed int64) (*ods.Store, *refModel) {
	t.Helper()
	opts := ods.DefaultOptions()
	opts.Seed = seed
	opts.Durability = d
	opts.RetainData = true
	opts.Files = []ods.FileSpec{{Name: "T", Partitions: 4}}
	opts.DataVolumes = 4
	opts.DataVolumeBytes = 64 << 20
	opts.AuditVolumeBytes = 64 << 20
	opts.PMRegionBytes = 8 << 20
	s := ods.Build(opts)
	ref := newRef()

	s.Cl.CPU(3).Spawn("script", func(p *cluster.Process) {
		se := s.NewSession(p)
		var txn ods.Txn
		open := false
		begin := func() bool {
			var err error
			txn, err = se.Begin()
			if err != nil {
				t.Errorf("begin: %v", err)
				return false
			}
			ref.staged = make(map[uint64][]byte)
			open = true
			return true
		}
		for _, op := range ops {
			if !open && !begin() {
				return
			}
			key := op.Key % 64
			val := bytes.Repeat([]byte{op.Val}, int(op.Val%7)+1)
			// The model only stages the insert if the key is free in both
			// the committed state and this transaction.
			_, inCommitted := ref.committed[key]
			_, inStaged := ref.staged[key]
			err := txn.Insert("T", key, val)
			if inCommitted || inStaged {
				if err == nil {
					t.Errorf("duplicate insert of %d accepted", key)
					return
				}
				// The failed insert poisons nothing; continue the txn.
			} else {
				if err != nil {
					t.Errorf("insert %d: %v", key, err)
					return
				}
				ref.staged[key] = val
			}
			switch {
			case op.Commit:
				if err := txn.Commit(); err != nil {
					t.Errorf("commit: %v", err)
					return
				}
				for k, v := range ref.staged {
					ref.committed[k] = v
				}
				open = false
			case op.Abort:
				if err := txn.Abort(); err != nil {
					t.Errorf("abort: %v", err)
					return
				}
				open = false
			}
		}
		if open {
			txn.Abort()
		}
		// Verify the visible state against the model.
		for k, v := range ref.committed {
			got, err := se.ReadBrowse("T", k)
			if err != nil {
				t.Errorf("read %d: %v", k, err)
				continue
			}
			if !bytes.Equal(got, v) {
				t.Errorf("key %d = %q, want %q", k, got, v)
			}
		}
		// And absent keys stay absent.
		for k := uint64(0); k < 64; k++ {
			if _, ok := ref.committed[k]; ok {
				continue
			}
			if _, err := se.ReadBrowse("T", k); err == nil {
				t.Errorf("key %d readable but never committed", k)
			}
		}
	})
	s.Eng.Run()
	return s, ref
}

// TestRandomWorkloadMatchesModel drives random scripts against all three
// durability modes and checks the visible state equals the reference.
func TestRandomWorkloadMatchesModel(t *testing.T) {
	for _, d := range []ods.Durability{ods.DiskDurability, ods.PMDurability, ods.PMDirectDurability} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			prop := func(ops []e2eOp, seedByte uint8) bool {
				if len(ops) > 30 {
					ops = ops[:30]
				}
				s, _ := runScript(t, d, ops, int64(seedByte)+1)
				s.Eng.Shutdown()
				return !t.Failed()
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 8}); err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCrashRecoveryMatchesModel runs a script, crashes the node, recovers
// from the durable trails, and checks the recovered image equals exactly
// the model's committed state.
func TestCrashRecoveryMatchesModel(t *testing.T) {
	script := make([]e2eOp, 0, 24)
	for i := 0; i < 24; i++ {
		script = append(script, e2eOp{
			Key:    uint64(i * 3),
			Val:    byte(i + 1),
			Commit: i%3 == 2, // txns of 3 inserts
			Abort:  i%9 == 4, // occasionally abort instead
		})
	}
	for _, d := range []ods.Durability{ods.DiskDurability, ods.PMDurability, ods.PMDirectDurability} {
		d := d
		t.Run(d.String(), func(t *testing.T) {
			s, ref := runScript(t, d, script, 7)
			if t.Failed() {
				return
			}
			// Crash.
			s.PowerFail()
			s.Eng.Run()

			// Recover.
			rb := recoverStore(t, s, d)
			if rb == nil {
				t.Fatal("no recovered image")
			}
			for k, v := range ref.committed {
				got, ok := rb.Get("T", k)
				if !ok {
					t.Errorf("committed key %d missing after %s recovery", k, d)
					continue
				}
				if !bytes.Equal(got, v) {
					t.Errorf("key %d = %q, want %q", k, got, v)
				}
			}
			if rb.Rows() != len(ref.committed) {
				t.Errorf("recovered %d rows, want %d", rb.Rows(), len(ref.committed))
			}
			s.Eng.Shutdown()
		})
	}
}

// recoverStore runs the right recovery path for the store's durability
// mode after a full power failure.
func recoverStore(t *testing.T, s *ods.Store, d ods.Durability) *recovery.Rebuilt {
	t.Helper()
	var rb *recovery.Rebuilt
	if d == ods.DiskDurability {
		s.Cl.RestorePower()
		s.Cl.CPU(2).Spawn("recover-disk", func(p *cluster.Process) {
			var err error
			_, rb, err = recovery.FromDisk(p, s.AuditVolumes, recovery.Options{})
			if err != nil {
				t.Errorf("FromDisk: %v", err)
			}
		})
		s.Eng.Run()
		return rb
	}

	// Reboot the node and PMM, then read the PM trails.
	s.NPMUPrimary.Restore()
	if s.NPMUMirror != s.NPMUPrimary {
		s.NPMUMirror.Restore()
	}
	s.Cl.RestorePower()
	pmm.Start(s.Cl, ods.PMVolumeName, 0, 1, s.NPMUPrimary, s.NPMUMirror)
	s.Cl.CPU(2).Spawn("recover-pm", func(p *cluster.Process) {
		vol := pmclient.Attach(s.Cl, ods.PMVolumeName)
		var err error
		_, rb, err = recovery.FromPM(p, vol, s.LogRegions(), tmf.TCBRegionName, recovery.Options{})
		if err != nil {
			t.Errorf("FromPM: %v", err)
		}
	})
	s.Eng.Run()
	return rb
}
