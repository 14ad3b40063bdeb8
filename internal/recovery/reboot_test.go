package recovery

import (
	"errors"
	"strings"
	"testing"

	"persistmem/internal/cluster"
	"persistmem/internal/npmu"
	"persistmem/internal/ods"
	"persistmem/internal/pmclient"
	"persistmem/internal/pmm"
	"persistmem/internal/sim"
	"persistmem/internal/tmf"
)

// A disk-durability store must be recoverable after an explicit reboot:
// RecoverDisk reboots internally too, and the second reboot is a no-op.
func TestRecoverDiskAfterReboot(t *testing.T) {
	res := RunScenario(ods.DiskDurability, 5, 7)
	if len(res.Errs) > 0 {
		t.Fatalf("workload errors: %v", res.Errs)
	}
	res.Reboot()
	if !res.Store.Cl.AllUp() {
		t.Fatal("reboot left CPUs down")
	}
	rep, rb, err := res.RecoverDisk(Options{})
	if err != nil {
		t.Fatalf("RecoverDisk after reboot: %v", err)
	}
	checkGroundTruth(t, rb, res)
	if rep.Committed != 5 || rep.RowsRedone != 20 {
		t.Errorf("classified %d committed / %d rows redone, want 5 / 20", rep.Committed, rep.RowsRedone)
	}
	res.Store.Eng.Shutdown()
}

// Reboot is idempotent: an explicit Reboot followed by RecoverPM (which
// reboots internally) must not wipe the restarted PM manager's
// registration or start a second manager pair.
func TestRebootIdempotentBeforeRecoverPM(t *testing.T) {
	res := RunScenario(ods.PMDurability, 5, 7)
	if len(res.Errs) > 0 {
		t.Fatalf("workload errors: %v", res.Errs)
	}
	res.Reboot()
	if got := res.Store.Cl.LookupCPU(ods.PMVolumeName); got != 0 {
		t.Fatalf("PMM registered on CPU %d after reboot, want 0", got)
	}
	res.Reboot() // second reboot must be a no-op
	if got := res.Store.Cl.LookupCPU(ods.PMVolumeName); got != 0 {
		t.Fatalf("second reboot dropped the PMM registration (CPU %d)", got)
	}
	_, rb, err := res.RecoverPM(Options{}, true)
	if err != nil {
		t.Fatalf("RecoverPM after explicit reboot: %v", err)
	}
	checkGroundTruth(t, rb, res)
	res.Store.Eng.Shutdown()
}

// recoverRegions reboots the scenario and runs FromPM over the named log
// regions through the PM manager registered as pmmName.
func recoverRegions(res ScenarioResult, pmmName string, regions []string) (rep Report, rb *Rebuilt, err error) {
	res.Reboot()
	res.Store.Cl.CPU(2).Spawn("recover-pm", func(p *cluster.Process) {
		rep, rb, err = FromPM(p, pmclient.Attach(res.Store.Cl, pmmName), regions, tmf.TCBRegionName, Options{})
	})
	res.Store.Eng.Run()
	return rep, rb, err
}

// A log region the PM manager answers "not found" for was never created:
// its writer died before its first append, so its trail is empty and the
// written regions beside it recover exactly as they do alone. That verdict
// needs the manager's answer — with no manager to ask, the same region
// list is an unreadable log.
func TestFromPMReadsNeverCreatedRegionAsEmpty(t *testing.T) {
	res := RunScenario(ods.PMDurability, 5, 1)
	if len(res.Errs) > 0 {
		t.Fatalf("workload errors: %v", res.Errs)
	}
	written := res.Store.LogRegions()
	want, _, err := recoverRegions(res, ods.PMVolumeName, written)
	if err != nil {
		t.Fatal(err)
	}
	regions := append([]string{written[0], "$ADP9-log"}, written[1:]...)
	got, rb, err := recoverRegions(res, ods.PMVolumeName, regions)
	if err != nil {
		t.Fatalf("FromPM with a never-created region: %v", err)
	}
	checkGroundTruth(t, rb, res)
	got.MTTR, want.MTTR = 0, 0 // asking the manager about the extra name takes time
	if got != want {
		t.Errorf("report with the empty trail = %+v, want %+v", got, want)
	}

	if _, _, err := recoverRegions(res, "$NOPMM", regions); !errors.Is(err, ErrNoLog) {
		t.Errorf("FromPM through an unreachable PM manager = %v, want ErrNoLog", err)
	}
	res.Store.Eng.Shutdown()
}

// A log region whose both replicas are unreadable fails the recovery with
// ErrNoLog — and is closed again on that path too: the PM manager must not
// keep the dead recovery's CPU in the region's open set, where it would pin
// the region (Delete answers ErrBusy) and keep its window mapped. The store's
// four regions are recovered: with both devices off (power, fabric) every
// trail fails and the error names the first; with the devices up and only
// trail 3 unreadable (one), the error names trail 3. Either way each worker
// closes the region it opened. Once the devices are back, Delete of every
// region gets past the open check: it succeeds after a fabric outage or with
// one trail unreadable, and after a power cycle fails later, at the metadata
// write (the manager's own windows went with the power).
func TestFromPMClosesRegionItCannotRead(t *testing.T) {
	for _, tc := range []struct {
		name       string
		off, on    func(*npmu.Device)
		bad        int // the trail the error names
		wantDelete error
	}{
		{"power", (*npmu.Device).PowerFail, (*npmu.Device).Restore, 0, pmm.ErrVolumeDown},
		{"fabric", (*npmu.Device).Fail, (*npmu.Device).Recover, 0, nil},
		{"one", nil, nil, 3, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := RunScenario(ods.PMDurability, 5, 1)
			if len(res.Errs) > 0 {
				t.Fatalf("workload errors: %v", res.Errs)
			}
			s := res.Store
			defer s.Eng.Shutdown()
			res.Reboot()
			s.Eng.Run() // the PM manager's cold start reads the devices; the outage comes after it
			if tc.off != nil {
				tc.off(s.NPMUPrimary)
				tc.off(s.NPMUMirror)
			}
			regions := res.Store.LogRegions()
			var err error
			s.Cl.CPU(2).Spawn("recover-pm", func(p *cluster.Process) {
				_, _, err = FromPM(p, pmclient.Attach(s.Cl, ods.PMVolumeName), regions, "", Options{})
			})
			if tc.off == nil {
				// Withdraw trail 3's window from its worker's CPU, 3, right
				// after the worker's Open: the four Opens reach the manager
				// first, and it serves them in turn, so this Close is served
				// as the worker gets its answer and before its first read.
				s.Cl.CPU(1).Spawn("revoke", func(p *cluster.Process) {
					p.Wait(100 * sim.Microsecond)
					_, _ = p.Call(ods.PMVolumeName, 64, pmm.CloseReq{Name: regions[3], ClientCPU: 3})
				})
			}
			s.Eng.Run()
			if !errors.Is(err, ErrNoLog) || !strings.Contains(err.Error(), regions[tc.bad]) {
				t.Fatalf("FromPM = %v, want ErrNoLog for %s", err, regions[tc.bad])
			}

			if tc.on != nil {
				tc.on(s.NPMUPrimary)
				tc.on(s.NPMUMirror)
			}
			for _, region := range regions {
				s.Cl.CPU(2).Spawn("delete", func(p *cluster.Process) {
					err = pmclient.Attach(s.Cl, ods.PMVolumeName).Delete(p, region)
				})
				s.Eng.Run()
				if !errors.Is(err, tc.wantDelete) {
					t.Errorf("Delete of %s after the failed recovery = %v, want %v (ErrBusy: the recovery left it open)", region, err, tc.wantDelete)
				}
			}
		})
	}
}

// An audit volume that cannot be read fails FromDisk with ErrNoLog and no
// image, once every worker has met at the barrier: the other trails' reads
// and analysis do not stand in for the missing one.
func TestFromDiskReportsUnreadableVolume(t *testing.T) {
	res := RunScenario(ods.DiskDurability, 5, 1)
	defer res.Store.Eng.Shutdown()
	res.Store.AuditVolumes[2].Fail()
	_, rb, err := res.RecoverDisk(Options{})
	if !errors.Is(err, ErrNoLog) || rb != nil {
		t.Fatalf("FromDisk with audit volume 2 failed = %v, image %v; want ErrNoLog and no image", err, rb)
	}
	for _, name := range res.Store.Eng.BlockedProcs() {
		if strings.HasPrefix(name, "recover") {
			t.Errorf("%s left waiting after the failed recovery", name)
		}
	}
}
