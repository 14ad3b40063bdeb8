package core_test

import (
	"encoding/binary"
	"fmt"

	"persistmem/internal/cluster"
	"persistmem/internal/core"
	"persistmem/internal/pmclient"
	"persistmem/internal/sim"
)

// Example shows the smallest complete persistent-memory program: bring up
// a 4-CPU node with a mirrored pair of hardware NPMUs, write through the
// synchronous mirrored API, lose power, and read the data back after
// reboot.
func Example() {
	sys := core.NewSystem(core.DefaultConfig())
	fmt.Println(sys.Describe())

	// Everything happens inside simulated processes in virtual time.
	sys.Spawn(2, "app", func(c *core.Client) {
		// Regions are the PM analog of files.
		if err := c.Volume.Create(c.Process, "state", 4096); err != nil {
			fmt.Println("create:", err)
			return
		}
		r, err := c.Volume.Open(c.Process, "state")
		if err != nil {
			fmt.Println("open:", err)
			return
		}
		// Write is synchronous and mirrored: "when the call returns the
		// data is either persistent or the call will return in error."
		start := c.Now()
		if err := r.Write(c.Process, 0, []byte("hello, durable world")); err != nil {
			fmt.Println("write:", err)
			return
		}
		fmt.Printf("durable write took %v (memory speed, not disk speed)\n", c.Now()-start)
	})
	sys.Run()

	// Catastrophe: the node and both NPMUs lose power.
	sys.PowerFail()
	sys.Reboot()

	sys.Spawn(3, "reader", func(c *core.Client) {
		r, err := c.Volume.Open(c.Process, "state")
		if err != nil {
			fmt.Println("open after reboot:", err)
			return
		}
		buf := make([]byte, 20)
		if err := r.Read(c.Process, 0, buf); err != nil {
			fmt.Println("read:", err)
			return
		}
		fmt.Printf("after power failure and reboot: %q\n", buf)
	})
	sys.Run()

	// Output:
	// 4 CPUs; hardware NPMU mirrored pair (256 MB each); no ODS; seed 1
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
	// message checkpointing: final=200,    400 KB shipped to backup, 415.9ms
	// PM fine-grained state: final=200,      3 KB written to PM,     512.5ms
	//
	// PM moved 128x fewer bytes and needs no dedicated backup process.
}

// messagePairScheme runs the classic NSK process pair: checkpoint every
// update to the backup before replying.
func messagePairScheme() (finalCount uint64, bytesMoved int64, took sim.Time) {
	sys := core.NewSystem(core.DefaultConfig())
	pair := sys.Cluster.StartPair("seqsvc", 0, 1, func(ctx *cluster.PairCtx) {
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
	sys.Spawn(2, "client", func(c *core.Client) {
		start := c.Now()
		for i := 0; i < updates/2; i++ {
			v, err := c.Call("seqsvc", 64, "next")
			if err != nil {
				fmt.Println("call:", err)
				return
			}
			last = v.(uint64)
		}
		sys.Cluster.CPU(0).Fail() // kill the primary's CPU
		for last < updates {
			v, err := c.Call("seqsvc", 64, "next")
			if err != nil {
				c.Wait(50 * sim.Millisecond)
				continue
			}
			last = v.(uint64)
		}
		took = c.Now() - start
	})
	sys.Run()
	sys.Eng.Shutdown()
	return last, pair.CheckpointBytes, took
}

// pmScheme keeps the state in a PM region instead: each update is one
// fine-grained durable write; a cold successor on another CPU reads the
// region and continues.
func pmScheme() (finalCount uint64, bytesMoved int64, took sim.Time) {
	sys := core.NewSystem(core.DefaultConfig())

	serve := func(c *core.Client, n int) {
		// Retry the open: after a CPU failure the PMM itself may be mid-
		// takeover (its management plane is a process pair too).
		var r *pmclient.Region
		for {
			var err error
			if r, err = c.Volume.Open(c.Process, "seq-state"); err == nil {
				break
			}
			c.Wait(100 * sim.Millisecond)
		}
		buf := make([]byte, 8)
		if err := r.Read(c.Process, 0, buf); err != nil {
			fmt.Println("read:", err)
			return
		}
		count := binary.LittleEndian.Uint64(buf)
		c.System().Cluster.Register("seqsvc", c.Process)
		for i := 0; i < n; i++ {
			ev := c.Recv()
			count++
			binary.LittleEndian.PutUint64(buf, count)
			// Fine-grained persistence: 8 bytes, synchronous, mirrored.
			if err := r.Write(c.Process, 0, buf); err != nil {
				fmt.Println("pm write:", err)
				return
			}
			bytesMoved += 2 * 8 // both mirrors
			ev.Reply(count)
		}
	}

	sys.Spawn(0, "seqsvc-1", func(c *core.Client) {
		if err := c.Volume.Create(c.Process, "seq-state", 4096); err != nil {
			fmt.Println("create:", err)
			return
		}
		serve(c, updates/2)
		// The serving CPU dies right here.
		c.System().Cluster.CPU(0).Fail()
	})

	var last uint64
	sys.Spawn(2, "client", func(c *core.Client) {
		start := c.Now()
		for last < updates {
			v, err := c.Call("seqsvc", 64, "next")
			if err != nil {
				// Primary gone: start a successor on another CPU. It
				// resumes from the PM region — no checkpointed twin
				// needed, any CPU will do.
				if last == updates/2 {
					sys.Spawn(3, "seqsvc-2", func(s *core.Client) {
						serve(s, updates/2)
					})
				}
				c.Wait(50 * sim.Millisecond)
				continue
			}
			last = v.(uint64)
		}
		took = c.Now() - start
	})
	sys.Run()
	sys.Eng.Shutdown()
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
	// system: 4 CPUs; hardware NPMU mirrored pair (256 MB each); no ODS; seed 1
	//
	// [   4.635ms] created regions app-log (8MB) and app-state (64KB)
	// [   4.683ms]   region app-log    owner=admin    offset=0x40000 size=8388608
	// [   4.683ms]   region app-state  owner=admin    offset=0x840000 size=65536
	// [   4.794ms] synchronous mirrored write of 13 bytes took 34.8us (durable on return)
	// [   4.794ms] killed the PMM primary's CPU
	// [   4.829ms] region write succeeded during the PMM outage (one-sided RDMA)
	// [   404.9ms] management plane back after takeover (takeovers=1)
	// [   454.9ms] write succeeded with the mirror down (volume degraded)
	// [   595.2ms] resilvered the replaced mirror: 8260 KB copied, redundancy restored
	//
	// [   595.2ms] POWER FAILURE (node and devices)
	// [   595.2ms] rebooted; PMM recovering metadata from NPMU
	// [   599.6ms] recovered 3 region(s) from durable metadata:
	// [   599.6ms]   region app-log    offset=0x40000 size=8388608
	// [   599.6ms]   region app-state  offset=0x840000 size=65536
	// [   599.6ms]   region probe      offset=0x850000 size=4096
	// [   599.7ms] read back "checkpoint #1" across the power cycle
	//
	// system: 4 CPUs; PMP prototype mirrored pair (256 MB each); no ODS; seed 1
	//
	// [   4.685ms] created regions app-log (8MB) and app-state (64KB)
	// [   4.733ms]   region app-log    owner=admin    offset=0x40000 size=8388608
	// [   4.733ms]   region app-state  owner=admin    offset=0x840000 size=65536
	// [   4.854ms] synchronous mirrored write of 13 bytes took 44.8us (durable on return)
	// [   4.854ms] killed the PMM primary's CPU
	// [   4.899ms] region write succeeded during the PMM outage (one-sided RDMA)
	// [     405ms] management plane back after takeover (takeovers=1)
	// [     455ms] write succeeded with the mirror down (volume degraded)
	// [   595.6ms] resilvered the replaced mirror: 8260 KB copied, redundancy restored
	//
	// [   595.6ms] POWER FAILURE (node and devices)
	// [   595.6ms] rebooted; PMM recovering metadata from NPMU
	// [   600.1ms] recovered 0 region(s) from durable metadata:
	// [   600.1ms]   (none — the PMP prototype is volatile, exactly as §4.2 warns)
}

// administer narrates Example_administration's walkthrough on hardware
// NPMUs or, with usePMP, on the PMP prototype.
func administer(usePMP bool) {
	cfg := core.DefaultConfig()
	cfg.PM.UsePMP = usePMP
	sys := core.NewSystem(cfg)
	fmt.Printf("system: %s\n\n", sys.Describe())

	// failed prints err, if any, as a line of the transcript.
	failed := func(step string, err error) bool {
		if err != nil {
			fmt.Printf("%s: %v\n", step, err)
		}
		return err != nil
	}
	step := func(c *core.Client, format string, args ...any) {
		fmt.Printf("[%10v] %s\n", c.Now(), fmt.Sprintf(format, args...))
	}

	// Phase 1: provision and use regions.
	sys.Spawn(2, "admin", func(c *core.Client) {
		if failed("create log region", c.Volume.Create(c.Process, "app-log", 8<<20)) ||
			failed("create state region", c.Volume.Create(c.Process, "app-state", 64<<10)) {
			return
		}
		step(c, "created regions app-log (8MB) and app-state (64KB)")

		regions, err := c.Volume.List(c.Process)
		if failed("list", err) {
			return
		}
		for _, r := range regions {
			step(c, "  region %-10s owner=%-8s offset=%#x size=%d", r.Name, r.Owner, r.Offset, r.Size)
		}

		r, err := c.Volume.Open(c.Process, "app-state")
		if failed("open", err) {
			return
		}
		start := c.Now()
		if failed("write", r.Write(c.Process, 0, []byte("checkpoint #1"))) {
			return
		}
		step(c, "synchronous mirrored write of 13 bytes took %v (durable on return)", c.Now()-start)

		// Kill the PMM's CPU: the data path must keep working.
		sys.Cluster.CPU(sys.PMM.Pair().PrimaryCPU()).Fail()
		step(c, "killed the PMM primary's CPU")
		if failed("write during PMM outage", r.Write(c.Process, 100, []byte("no manager needed"))) {
			return
		}
		step(c, "region write succeeded during the PMM outage (one-sided RDMA)")
		for c.Volume.Create(c.Process, "probe", 4096) != nil {
			c.Wait(100 * sim.Millisecond)
		}
		step(c, "management plane back after takeover (takeovers=%d)", sys.PMM.Pair().Takeovers)

		// Mirror loss and online repair.
		sys.Mirror.PowerFail()
		if failed("degraded write", r.Write(c.Process, 200, []byte("one mirror down"))) {
			return
		}
		step(c, "write succeeded with the mirror down (volume degraded)")
		sys.Mirror.Restore()
		copied, err := c.Volume.Resilver(c.Process)
		if failed("resilver", err) {
			return
		}
		step(c, "resilvered the replaced mirror: %d KB copied, redundancy restored", copied/1024)
	})
	sys.Run()

	// Phase 2: power cycle.
	fmt.Printf("\n[%10v] POWER FAILURE (node and devices)\n", sys.Eng.Now())
	sys.PowerFail()
	sys.Reboot()
	fmt.Printf("[%10v] rebooted; PMM recovering metadata from NPMU\n", sys.Eng.Now())

	sys.Spawn(2, "admin2", func(c *core.Client) {
		regions, err := c.Volume.List(c.Process)
		if failed("list after reboot", err) {
			return
		}
		step(c, "recovered %d region(s) from durable metadata:", len(regions))
		for _, r := range regions {
			step(c, "  region %-10s offset=%#x size=%d", r.Name, r.Offset, r.Size)
		}
		if len(regions) == 0 {
			step(c, "  (none — the PMP prototype is volatile, exactly as §4.2 warns)")
			return
		}
		r, err := c.Volume.Open(c.Process, "app-state")
		if failed("reopen", err) {
			return
		}
		buf := make([]byte, 13)
		if failed("read", r.Read(c.Process, 0, buf)) {
			return
		}
		step(c, "read back %q across the power cycle", buf)
	})
	sys.Run()
}
