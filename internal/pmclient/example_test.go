package pmclient_test

import (
	"encoding/binary"
	"fmt"

	"persistmem/internal/cluster"
	"persistmem/internal/npmu"
	"persistmem/internal/pmclient"
	"persistmem/internal/pmm"
	"persistmem/internal/sim"
)

// pmNode is the paper's PM deployment (§3) on a 4-CPU node: a mirrored
// pair of 256 MB NPMUs managed by the PMM process pair $PM1 on CPUs 0
// and 1, with vol the client handle to its volume.
type pmNode struct {
	eng        *sim.Engine
	cl         *cluster.Cluster
	prim, mirr *npmu.Device
	mgr        *pmm.Manager
	vol        *pmclient.Volume
}

// newPMNode builds the node on hardware NPMUs or, with pmp, on the
// volatile PMP prototype.
func newPMNode(pmp bool) *pmNode {
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, cluster.DefaultConfig())
	device := npmu.New
	if pmp {
		device = npmu.NewPMP
	}
	n := &pmNode{eng: eng, cl: cl, prim: device(cl, "npmu-a", 256<<20), mirr: device(cl, "npmu-b", 256<<20)}
	n.mgr = pmm.Start(cl, "$PM1", 0, 1, n.prim, n.mirr)
	n.vol = pmclient.Attach(cl, "$PM1")
	return n
}

// powerCycle pulls the plug on the node and both devices — every CPU's
// volatile state is lost — then restores power and starts a fresh PMM,
// which recovers the region table from the devices' durable metadata.
func (n *pmNode) powerCycle() {
	n.cl.PowerFail()
	n.prim.PowerFail()
	n.mirr.PowerFail()
	n.eng.RunUntil(n.eng.Now()) // drain the failure fallout
	n.prim.Restore()
	n.mirr.Restore()
	n.cl.RestorePower()
	n.mgr = pmm.Start(n.cl, "$PM1", 0, 1, n.prim, n.mirr)
}

// Example shows the smallest complete persistent-memory program: bring up
// a 4-CPU node with a mirrored pair of hardware NPMUs, write through the
// synchronous mirrored API, lose power, and read the data back after
// reboot.
func Example() {
	n := newPMNode(false)

	// Everything happens inside simulated processes in virtual time.
	n.cl.CPU(2).Spawn("app", func(p *cluster.Process) {
		// Regions are the PM analog of files.
		if err := n.vol.Create(p, "state", 4096); err != nil {
			fmt.Println("create:", err)
			return
		}
		r, err := n.vol.Open(p, "state")
		if err != nil {
			fmt.Println("open:", err)
			return
		}
		// Write is synchronous and mirrored: "when the call returns the
		// data is either persistent or the call will return in error."
		start := p.Now()
		if err := r.Write(p, 0, []byte("hello, durable world")); err != nil {
			fmt.Println("write:", err)
			return
		}
		fmt.Printf("durable write took %v (memory speed, not disk speed)\n", p.Now()-start)
	})
	n.eng.Run()

	// Catastrophe: the node and both NPMUs lose power.
	n.powerCycle()

	n.cl.CPU(3).Spawn("reader", func(p *cluster.Process) {
		r, err := n.vol.Open(p, "state")
		if err != nil {
			fmt.Println("open after reboot:", err)
			return
		}
		buf := make([]byte, 20)
		if err := r.Read(p, 0, buf); err != nil {
			fmt.Println("read:", err)
			return
		}
		fmt.Printf("after power failure and reboot: %q\n", buf)
	})
	n.eng.Run()

	// Output:
	// durable write took 34.9us (memory speed, not disk speed)
	// after power failure and reboot: "hello, durable world"
}

// updates is how many sequence numbers Example_checkpoint's service hands
// out; its serving CPU fails halfway.
const updates = 200

// Example_checkpoint is §3.4's "efficient data movement between address
// spaces". A primary/backup service normally protects its state by message
// checkpointing — every update crosses the fabric to the backup before
// being externalized. With persistent memory the primary instead writes
// its state changes to a PM region at a fine grain; after a failure, any
// processor can take over by reading the region, and nothing was shipped
// twice. A sequence-number service runs both ways, its serving CPU is
// crashed, and the successor resumes from the exact count.
func Example_checkpoint() {
	fmt.Printf("sequence service, %d updates, CPU failure halfway:\n\n", updates)
	c1, b1, t1 := messagePairScheme()
	fmt.Printf("message checkpointing: final=%d, %6d KB shipped to backup, %v\n", c1, b1/1024, t1)
	c2, b2, t2 := pmScheme()
	fmt.Printf("PM fine-grained state: final=%d, %6d KB written to PM,     %v\n", c2, b2/1024, t2)
	fmt.Printf("\nPM moved %.0fx fewer bytes and needs no dedicated backup process.\n",
		float64(b1)/float64(b2))

	// Output:
	// sequence service, 200 updates, CPU failure halfway:
	//
	// message checkpointing: final=200,    400 KB shipped to backup, 411.6ms
	// PM fine-grained state: final=200,      3 KB written to PM,     512.5ms
	//
	// PM moved 128x fewer bytes and needs no dedicated backup process.
}

// messagePairScheme runs the classic NSK process pair: checkpoint every
// update to the backup before replying.
func messagePairScheme() (finalCount uint64, bytesMoved int64, took sim.Time) {
	n := newPMNode(false)
	pair := n.cl.StartPair("seqsvc", 0, 1, func(ctx *cluster.PairCtx) {
		count := uint64(0)
		if ctx.Restored != nil {
			count = ctx.Restored.(uint64)
		}
		for {
			ev := ctx.Recv()
			count++
			if err := ctx.Checkpoint(4096, count); err != nil {
				fmt.Println("checkpoint:", err)
				return
			}
			ev.Reply(count)
		}
	})
	var last uint64
	n.cl.CPU(2).Spawn("client", func(p *cluster.Process) {
		start := p.Now()
		for i := 0; i < updates/2; i++ {
			v, err := p.Call("seqsvc", 64, "next")
			if err != nil {
				fmt.Println("call:", err)
				return
			}
			last = v.(uint64)
		}
		n.cl.CPU(0).Fail() // kill the primary's CPU
		for last < updates {
			v, err := p.Call("seqsvc", 64, "next")
			if err != nil {
				p.Wait(50 * sim.Millisecond)
				continue
			}
			last = v.(uint64)
		}
		took = p.Now() - start
	})
	n.eng.Run()
	n.eng.Shutdown()
	return last, pair.CheckpointBytes, took
}

// pmScheme keeps the state in a PM region instead: each update is one
// fine-grained durable write; a cold successor on another CPU reads the
// region and continues.
func pmScheme() (finalCount uint64, bytesMoved int64, took sim.Time) {
	n := newPMNode(false)

	serve := func(p *cluster.Process, todo int) {
		// Retry the open: after a CPU failure the PMM itself may be mid-
		// takeover (its management plane is a process pair too).
		var r *pmclient.Region
		for {
			var err error
			if r, err = n.vol.Open(p, "seq-state"); err == nil {
				break
			}
			p.Wait(100 * sim.Millisecond)
		}
		buf := make([]byte, 8)
		if err := r.Read(p, 0, buf); err != nil {
			fmt.Println("read:", err)
			return
		}
		count := binary.LittleEndian.Uint64(buf)
		n.cl.Register("seqsvc", p)
		for i := 0; i < todo; i++ {
			ev := p.Recv()
			count++
			binary.LittleEndian.PutUint64(buf, count)
			// Fine-grained persistence: 8 bytes, synchronous, mirrored.
			if err := r.Write(p, 0, buf); err != nil {
				fmt.Println("pm write:", err)
				return
			}
			bytesMoved += 2 * 8 // both mirrors
			ev.Reply(count)
		}
	}

	n.cl.CPU(0).Spawn("seqsvc-1", func(p *cluster.Process) {
		if err := n.vol.Create(p, "seq-state", 4096); err != nil {
			fmt.Println("create:", err)
			return
		}
		serve(p, updates/2)
		// The serving CPU dies right here.
		n.cl.CPU(0).Fail()
	})

	var last uint64
	n.cl.CPU(2).Spawn("client", func(p *cluster.Process) {
		start := p.Now()
		for last < updates {
			v, err := p.Call("seqsvc", 64, "next")
			if err != nil {
				// Primary gone: start a successor on another CPU. It
				// resumes from the PM region — no checkpointed twin
				// needed, any CPU will do.
				if last == updates/2 {
					n.cl.CPU(3).Spawn("seqsvc-2", func(s *cluster.Process) {
						serve(s, updates/2)
					})
				}
				p.Wait(50 * sim.Millisecond)
				continue
			}
			last = v.(uint64)
		}
		took = p.Now() - start
	})
	n.eng.Run()
	n.eng.Shutdown()
	return last, bytesMoved, took
}

// Example_administration administers a PM volume: creating and listing
// regions, writing through the synchronous mirrored API, surviving a PMM
// takeover and a lost mirror, and recovering the region table across a
// full power cycle. Each step is stamped with the virtual time it
// completed. On hardware NPMUs the three regions come back; on the PMP
// prototype, which is volatile (§4.2), none do.
func Example_administration() {
	administer(false)
	fmt.Println()
	administer(true)

	// Output:
	// system: hardware NPMUs
	//
	// [     330us] created regions app-log (8MB) and app-state (64KB)
	// [     377us]   region app-log    owner=admin    offset=0x40000 size=8388608
	// [     377us]   region app-state  owner=admin    offset=0x840000 size=65536
	// [     488us] synchronous mirrored write of 13 bytes took 34.8us (durable on return)
	// [     488us] killed the PMM primary's CPU
	// [     523us] region write succeeded during the PMM outage (one-sided RDMA)
	// [   400.6ms] management plane back after takeover (takeovers=1)
	// [   450.6ms] write succeeded with the mirror down (volume degraded)
	// [   590.9ms] resilvered the replaced mirror: 8260 KB copied, redundancy restored
	//
	// [   590.9ms] POWER FAILURE (node and devices)
	// [   590.9ms] rebooted; PMM recovering metadata from NPMU
	// [     591ms] recovered 3 region(s) from durable metadata:
	// [     591ms]   region app-log    offset=0x40000 size=8388608
	// [     591ms]   region app-state  offset=0x840000 size=65536
	// [     591ms]   region probe      offset=0x850000 size=4096
	// [   591.1ms] read back "checkpoint #1" across the power cycle
	//
	// system: PMP prototype
	//
	// [     380us] created regions app-log (8MB) and app-state (64KB)
	// [     427us]   region app-log    owner=admin    offset=0x40000 size=8388608
	// [     427us]   region app-state  owner=admin    offset=0x840000 size=65536
	// [     548us] synchronous mirrored write of 13 bytes took 44.8us (durable on return)
	// [     548us] killed the PMM primary's CPU
	// [     593us] region write succeeded during the PMM outage (one-sided RDMA)
	// [   400.7ms] management plane back after takeover (takeovers=1)
	// [   450.7ms] write succeeded with the mirror down (volume degraded)
	// [   591.3ms] resilvered the replaced mirror: 8260 KB copied, redundancy restored
	//
	// [   591.3ms] POWER FAILURE (node and devices)
	// [   591.3ms] rebooted; PMM recovering metadata from NPMU
	// [   591.5ms] recovered 0 region(s) from durable metadata:
	// [   591.5ms]   (none — the PMP prototype is volatile, exactly as §4.2 warns)
}

// administer narrates Example_administration's walkthrough on hardware
// NPMUs or, with pmp, on the PMP prototype.
func administer(pmp bool) {
	n := newPMNode(pmp)
	kind := "hardware NPMUs"
	if pmp {
		kind = "PMP prototype"
	}
	fmt.Printf("system: %s\n\n", kind)

	// failed prints err, if any, as a line of the transcript.
	failed := func(step string, err error) bool {
		if err != nil {
			fmt.Printf("%s: %v\n", step, err)
		}
		return err != nil
	}
	step := func(p *cluster.Process, format string, args ...any) {
		fmt.Printf("[%10v] %s\n", p.Now(), fmt.Sprintf(format, args...))
	}

	// Phase 1: provision and use regions.
	n.cl.CPU(2).Spawn("admin", func(p *cluster.Process) {
		if failed("create log region", n.vol.Create(p, "app-log", 8<<20)) ||
			failed("create state region", n.vol.Create(p, "app-state", 64<<10)) {
			return
		}
		step(p, "created regions app-log (8MB) and app-state (64KB)")

		regions, err := n.vol.List(p)
		if failed("list", err) {
			return
		}
		for _, r := range regions {
			step(p, "  region %-10s owner=%-8s offset=%#x size=%d", r.Name, r.Owner, r.Offset, r.Size)
		}

		r, err := n.vol.Open(p, "app-state")
		if failed("open", err) {
			return
		}
		start := p.Now()
		if failed("write", r.Write(p, 0, []byte("checkpoint #1"))) {
			return
		}
		step(p, "synchronous mirrored write of 13 bytes took %v (durable on return)", p.Now()-start)

		// Kill the PMM's CPU: the data path must keep working.
		n.cl.CPU(n.mgr.Pair().PrimaryCPU()).Fail()
		step(p, "killed the PMM primary's CPU")
		if failed("write during PMM outage", r.Write(p, 100, []byte("no manager needed"))) {
			return
		}
		step(p, "region write succeeded during the PMM outage (one-sided RDMA)")
		for n.vol.Create(p, "probe", 4096) != nil {
			p.Wait(100 * sim.Millisecond)
		}
		step(p, "management plane back after takeover (takeovers=%d)", n.mgr.Pair().Takeovers)

		// Mirror loss and online repair.
		n.mirr.PowerFail()
		if failed("degraded write", r.Write(p, 200, []byte("one mirror down"))) {
			return
		}
		step(p, "write succeeded with the mirror down (volume degraded)")
		n.mirr.Restore()
		copied, err := n.vol.Resilver(p)
		if failed("resilver", err) {
			return
		}
		step(p, "resilvered the replaced mirror: %d KB copied, redundancy restored", copied/1024)
	})
	n.eng.Run()

	// Phase 2: power cycle.
	fmt.Printf("\n[%10v] POWER FAILURE (node and devices)\n", n.eng.Now())
	n.powerCycle()
	fmt.Printf("[%10v] rebooted; PMM recovering metadata from NPMU\n", n.eng.Now())

	n.cl.CPU(2).Spawn("admin2", func(p *cluster.Process) {
		regions, err := n.vol.List(p)
		if failed("list after reboot", err) {
			return
		}
		step(p, "recovered %d region(s) from durable metadata:", len(regions))
		for _, r := range regions {
			step(p, "  region %-10s offset=%#x size=%d", r.Name, r.Offset, r.Size)
		}
		if len(regions) == 0 {
			step(p, "  (none — the PMP prototype is volatile, exactly as §4.2 warns)")
			return
		}
		r, err := n.vol.Open(p, "app-state")
		if failed("reopen", err) {
			return
		}
		buf := make([]byte, 13)
		if failed("read", r.Read(p, 0, buf)) {
			return
		}
		step(p, "read back %q across the power cycle", buf)
	})
	n.eng.Run()
}
