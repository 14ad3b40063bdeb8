package adp

import (
	"fmt"
	"testing"

	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/disk"
	"persistmem/internal/metrics"
	"persistmem/internal/npmu"
	"persistmem/internal/pmclient"
	"persistmem/internal/pmm"
	"persistmem/internal/servernet"
	"persistmem/internal/sim"
)

// The modes TestKillAtEveryADPLeg runs in.
const (
	killDisk     = iota // Disk mode; the boxcar's flush is one volume write
	killDiskWrap        // Disk mode; the boxcar's flush wraps the volume: two writes
	killPM              // PM mode
)

// killWrapVolume is the wrapping mode's audit volume: a first commit fills
// it to within a few hundred bytes of its end, so the boxcar's flush wraps.
const killWrapVolume = 16 << 10

// adpFault is one run of TestKillAtEveryADPLeg's scenario. A request keeps
// the ADP busy — a commit's flush (Disk), a 64 KiB mirrored append (PM) —
// while transaction 1 sends two appends and a commit, so the three are served
// as one boxcar, the commit's flush with them. Fault strikes at the kth event
// addressed to the first primary from transaction 1's first send to its last
// reply (k 0: never). Whatever failed is retried as transaction 2 once the
// takeover is done.
type adpFault struct {
	mode  int
	fault func(cl *cluster.Cluster, a *ADP)
	k     int
}

type adpOutcome struct {
	wakes     int   // events addressed to the primary while transaction 1 was in flight
	firstErr  error // transaction 1's first failed request
	retryErr  error
	oneBoxcar bool  // transaction 1's requests were all sent before the busy request's reply
	writesAt  int64 // audit volume writes when the fault struck
	acked     []audit.TxnID
	trailFrom audit.LSN // the trail scanned: from here to durable
	durable   audit.LSN
	trail     []byte
	primary   *sim.Proc
	cpuInUse  []int
	ports     map[string]int
	armInUse  int
	conserve  []error
	takeovers int
	volWrites int64
	regionErr error
}

func (f adpFault) run(t *testing.T) adpOutcome {
	t.Helper()
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, cluster.DefaultConfig())
	reg := metrics.NewRegistry()
	cfg := Config{Name: "$ADP0", Metrics: reg}
	var vol *disk.Volume
	var devs []*npmu.Device
	clientCPU := 2
	switch f.mode {
	case killPM:
		devs = []*npmu.Device{npmu.New(cl, "npmu-a", 64<<20), npmu.New(cl, "npmu-b", 64<<20)}
		pmm.Start(cl, "$PM1", 0, 1, devs[0], devs[1])
		cfg.PrimaryCPU, cfg.BackupCPU, cfg.Mode = 2, 3, PM
		cfg.PMVolume, cfg.RegionSize = "$PM1", 1<<20
		clientCPU = 1
	default:
		capacity := int64(64 << 20)
		if f.mode == killDiskWrap {
			capacity = killWrapVolume
		}
		vol = disk.New(eng, "$AUDIT", disk.DefaultConfig(), capacity)
		cfg.PrimaryCPU, cfg.BackupCPU, cfg.Mode, cfg.Volume = 0, 1, Disk, vol
	}
	a := Start(cl, cfg)

	var o adpOutcome
	inFlight := false
	eng.SetDispatchObserver(func(_ sim.Time, _ uint64, p *sim.Proc, _ uint64) {
		if p == nil || p.Name() != "$ADP0-p1" {
			return
		}
		o.primary = p
		if inFlight {
			if o.wakes++; o.wakes == f.k {
				if vol != nil {
					o.writesAt = vol.Stats.Writes
				}
				f.fault(cl, a)
			}
		}
	})

	cl.CPU(clientCPU).Spawn("client", func(p *cluster.Process) {
		commit := func(txn audit.TxnID, req *CommitReq, err error) error {
			if err == nil {
				err = req.Resp.Err
			}
			if err == nil {
				o.acked = append(o.acked, txn)
			}
			return err
		}
		appendErr := func(req *AppendReq, err error) error {
			if err == nil {
				err = req.Resp.Err
			}
			return err
		}
		if f.mode == killDiskWrap {
			// Fill the volume to within a few hundred bytes of its end.
			pre := appendRecords(8, 1, killWrapVolume-600)
			call(t, p, len(pre), &AppendReq{Data: pre})
			resp := call(t, p, 64, &CommitReq{Txn: 8}).Resp
			if resp.Err != nil {
				t.Fatalf("the filling commit: %v", resp.Err)
			}
			o.trailFrom = resp.LSN // the scan starts past the filling commit
		}

		// The busy request, and transaction 1's boxcar behind it.
		busyCommit := &CommitReq{Txn: 9}
		var busy *sim.Signal
		var err error
		if f.mode == killPM {
			big := appendRecords(9, 1, 64<<10)
			busy, err = p.CallAsync("$ADP0", len(big), &AppendReq{Data: big})
		} else {
			small := appendRecords(9, 1, 256)
			call(t, p, len(small), &AppendReq{Data: small})
			busy, err = p.CallAsync("$ADP0", 64, busyCommit)
		}
		if err != nil {
			t.Fatalf("the busy request: %v", err)
		}
		inFlight = true
		reqs := []interface{}{
			&AppendReq{Data: appendRecords(1, 1, 1024)},
			&AppendReq{Data: appendRecords(1, 1, 1024)},
			&CommitReq{Txn: 1},
		}
		var sigs []*sim.Signal
		for _, req := range reqs {
			sig, err := p.CallAsync("$ADP0", 64, req)
			if err != nil {
				o.firstErr = err
				break
			}
			sigs = append(sigs, sig)
		}
		sentAt := p.Now()
		_, busyErr := p.AwaitReply(busy)
		o.oneBoxcar = len(sigs) == len(reqs) && sentAt < p.Now()
		if f.mode != killPM {
			commit(9, busyCommit, busyErr)
		}
		for i, sig := range sigs {
			_, err := p.AwaitReply(sig)
			switch req := reqs[i].(type) {
			case *AppendReq:
				err = appendErr(req, err)
			case *CommitReq:
				err = commit(1, req, err)
			}
			if err != nil && o.firstErr == nil {
				o.firstErr = fmt.Errorf("request %d: %w", i, err)
			}
		}
		inFlight = false

		if o.firstErr != nil {
			p.Wait(cluster.TakeoverDelay + 100*sim.Millisecond)
			for i := 0; i < 2 && o.retryErr == nil; i++ {
				req := &AppendReq{Data: appendRecords(2, 1, 1024)}
				_, err := p.Call("$ADP0", 64, req)
				o.retryErr = appendErr(req, err)
			}
			if o.retryErr == nil {
				req := &CommitReq{Txn: 2}
				_, err := p.Call("$ADP0", 64, req)
				o.retryErr = commit(2, req, err)
			}
		}
		st := stateOf(t, p)
		o.durable = st.DurableLSN
		o.regionErr = st.RegionErr
		if f.mode == killPM {
			region, err := pmclient.Attach(cl, "$PM1").Open(p, a.RegionName())
			if err != nil {
				t.Fatalf("open the log region: %v", err)
			}
			o.trail = make([]byte, o.durable)
			if err := region.Read(p, 0, o.trail); err != nil {
				t.Fatalf("read the log region: %v", err)
			}
		}
	})
	eng.Run()

	if vol != nil {
		// The trail's bytes from trailFrom to durable, each LSN at its offset
		// modulo the volume's capacity.
		o.trail = make([]byte, o.durable-o.trailFrom)
		for i := range o.trail {
			var b [1]byte
			if err := vol.Store().ReadAt((int64(o.trailFrom)+int64(i))%vol.Capacity(), b[:]); err != nil {
				t.Fatal(err)
			}
			o.trail[i] = b[0]
		}
		o.armInUse = vol.ArmInUse()
		o.volWrites = vol.Stats.Writes
	}
	for i := 0; i < cl.NumCPUs(); i++ {
		o.cpuInUse = append(o.cpuInUse, cl.CPU(i).InUse())
	}
	ids := []servernet.EndpointID{}
	for i := 0; i < cl.NumCPUs(); i++ {
		ids = append(ids, cl.CPU(i).Endpoint().ID())
	}
	for _, d := range devs {
		ids = append(ids, d.EndpointID())
	}
	o.ports = map[string]int{}
	for _, id := range ids {
		if ep := cl.Fabric().Endpoint(id); ep != nil && ep.PortInUse() != 0 {
			o.ports[ep.Name()] = ep.PortInUse()
		}
	}
	o.conserve = reg.CheckConservation()
	o.takeovers = a.Pair().Takeovers
	eng.Shutdown()
	return o
}

// commitsIn returns the transactions whose commit records the trail holds,
// scanned from its first byte.
func commitsIn(trail []byte) map[audit.TxnID]bool {
	got := map[audit.TxnID]bool{}
	s := audit.NewScanner(trail)
	for s.Next() {
		if s.Record().Type == audit.RecCommit {
			got[s.Record().Txn] = true
		}
	}
	return got
}

// TestKillAtEveryADPLeg kills the ADP primary — and separately fails its CPU
// — at every event addressed to it while one boxcar is served: two appends
// and a commit behind a busy request, each request's CPU hold, each append's
// checkpoint (Disk) or mirrored PM write and counters checkpoint (PM), and
// the commit's flush: its CPU hold, its volume write — both writes, and the
// instant between them, when the flush wraps the volume — and the reset
// checkpoint. Afterwards no CPU, disk arm or fabric port is held, the
// takeover serves the retried commit, a scan of the trail holds every
// acknowledged commit, and the boxcar's conservation law holds.
func TestKillAtEveryADPLeg(t *testing.T) {
	faults := []struct {
		name string
		do   func(cl *cluster.Cluster, a *ADP)
	}{
		{"KillPrimary", func(_ *cluster.Cluster, a *ADP) { a.Pair().KillPrimary() }},
		{"CPU.Fail", func(cl *cluster.Cluster, a *ADP) { cl.CPU(a.cfg.PrimaryCPU).Fail() }},
	}
	kills := 0
	for mode, name := range []string{"disk", "disk-wrap", "pm"} {
		clean := adpFault{mode: mode}.run(t)
		if clean.firstErr != nil || clean.retryErr != nil || clean.wakes < 2 || !clean.oneBoxcar {
			t.Fatalf("%s undisturbed: %v, %v after %d events at the primary, one boxcar %v", name, clean.firstErr, clean.retryErr, clean.wakes, clean.oneBoxcar)
		}
		// Disk: the filling flush (wrap mode), the busy commit's flush and the
		// boxcar's, in one volume write or, wrapping, in two.
		if want := map[int]int64{killDisk: 2, killDiskWrap: 4}[mode]; clean.volWrites != want {
			t.Fatalf("%s undisturbed: %d volume writes, want %d", name, clean.volWrites, want)
		}
		if got := commitsIn(clean.trail); len(clean.acked) != map[int]int{killDisk: 2, killDiskWrap: 2, killPM: 1}[mode] || !got[1] {
			t.Fatalf("%s undisturbed: acknowledged %v, the trail holds commits %v", name, clean.acked, got)
		}
		t.Logf("%s: %d events at the primary", name, clean.wakes)
		between := false // some kill fell between the wrapping flush's writes
		for _, flt := range faults {
			for k := 1; k <= clean.wakes; k++ {
				kills++
				t.Run(fmt.Sprintf("%s/%s/event%d", name, flt.name, k), func(t *testing.T) {
					o := adpFault{mode: mode, fault: flt.do, k: k}.run(t)
					if mode == killDiskWrap && o.writesAt == 3 {
						between = true
					}
					if o.firstErr == nil {
						t.Fatalf("transaction 1 was served whole: the fault did not land inside its boxcar")
					}
					if !o.primary.Done() || !o.primary.Killed() {
						t.Errorf("the first primary: done %v, killed %v; want killed", o.primary.Done(), o.primary.Killed())
					}
					if o.takeovers != 1 {
						t.Errorf("%d takeovers, want 1", o.takeovers)
					}
					if o.retryErr != nil {
						t.Errorf("the retried commit after the takeover: %v", o.retryErr)
					}
					if o.regionErr != nil {
						t.Errorf("the takeover could not open its region: %v", o.regionErr)
					}
					got := commitsIn(o.trail)
					for _, txn := range o.acked {
						if !got[txn] {
							t.Errorf("transaction %d's commit was acknowledged but the trail up to %d holds no commit record for it", txn, o.durable)
						}
					}
					for i, n := range o.cpuInUse {
						if n != 0 {
							t.Errorf("cpu%d's execution resource still held at the end", i)
						}
					}
					if o.armInUse != 0 {
						t.Errorf("the audit volume's arm still held at the end")
					}
					if len(o.ports) != 0 {
						t.Errorf("fabric ports still held at the end: %v", o.ports)
					}
					for _, err := range o.conserve {
						t.Errorf("conservation: %v", err)
					}
				})
			}
		}
		if mode == killDiskWrap && !between {
			t.Errorf("no kill fell between the wrapping flush's two volume writes")
		}
	}
	t.Logf("%d kills", kills)
}

// A wake-up for a writer with no leg pending is a programming error, and
// loud.
func TestWriterIdleStepPanics(t *testing.T) {
	defer func() {
		if msg, _ := recover().(string); msg != "adp: writer step with no leg pending" {
			t.Errorf("an idle writer's step panicked with %q", msg)
		}
	}()
	(&writer{}).after()
}
