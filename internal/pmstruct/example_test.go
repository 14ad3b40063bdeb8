package pmstruct_test

import (
	"fmt"

	"persistmem/internal/cluster"
	"persistmem/internal/npmu"
	"persistmem/internal/pmclient"
	"persistmem/internal/pmheap"
	"persistmem/internal/pmm"
	"persistmem/internal/pmstruct"
	"persistmem/internal/sim"
)

// customers is how many records Example loads into the map.
const customers = 500

// Example builds a durable hash map of customer records inside a PM
// region (§3.4's pointer-rich structures), pulls the plug, and reads it
// back from a different CPU — no marshalling, no pointer swizzling,
// because every link is a region offset. It also contrasts the cost of
// one selective read with a bulk read of the whole structure.
func Example() {
	// A 4-CPU node with a mirrored pair of hardware NPMUs under the PMM
	// process pair $PM1 (§3).
	eng := sim.NewEngine(1)
	cl := cluster.New(eng, cluster.DefaultConfig())
	prim, mirr := npmu.New(cl, "npmu-a", 256<<20), npmu.New(cl, "npmu-b", 256<<20)
	pmm.Start(cl, "$PM1", 0, 1, prim, mirr)
	vol := pmclient.Attach(cl, "$PM1")

	// Phase 1: CPU 2 builds the structure.
	cl.CPU(2).Spawn("loader", func(p *cluster.Process) {
		if err := vol.Create(p, "customers", 4<<20); err != nil {
			fmt.Println("create:", err)
			return
		}
		r, err := vol.Open(p, "customers")
		if err != nil {
			fmt.Println("open:", err)
			return
		}
		heap, err := pmheap.Format(p, r)
		if err != nil {
			fmt.Println("format:", err)
			return
		}
		m, err := pmstruct.CreateMap(p, heap, 128)
		if err != nil {
			fmt.Println("create map:", err)
			return
		}
		start := p.Now()
		for id := uint64(1); id <= customers; id++ {
			rec := fmt.Sprintf("customer-%04d|plan=gold|balance=%d", id, id*37)
			if err := m.Put(p, id, []byte(rec)); err != nil {
				fmt.Println("put:", err)
				return
			}
		}
		fmt.Printf("loaded %d records into PM in %v (%d KB used)\n",
			customers, p.Now()-start, heap.Used()/1024)
	})
	eng.Run()

	// Catastrophe between phases: the node and both NPMUs lose power, then
	// a fresh PMM recovers the region table from durable metadata.
	cl.PowerFail()
	prim.PowerFail()
	mirr.PowerFail()
	eng.RunUntil(eng.Now())
	prim.Restore()
	mirr.Restore()
	cl.RestorePower()
	pmm.Start(cl, "$PM1", 0, 1, prim, mirr)
	fmt.Println("power failed and rebooted")

	// Phase 2: CPU 3 — a different address space, after the crash — reads
	// the exact same structure.
	cl.CPU(3).Spawn("reader", func(p *cluster.Process) {
		r, err := vol.Open(p, "customers")
		if err != nil {
			fmt.Println("reopen:", err)
			return
		}
		heap, err := pmheap.Open(p, r)
		if err != nil {
			fmt.Println("heap open:", err)
			return
		}
		m, err := pmstruct.OpenMap(p, heap)
		if err != nil {
			fmt.Println("map open:", err)
			return
		}

		start := p.Now()
		v, err := m.Get(p, 123)
		if err != nil {
			fmt.Println("get:", err)
			return
		}
		getTime := p.Now() - start
		fmt.Printf("selective read of one record: %q in %v\n", v, getTime)

		start = p.Now()
		n := 0
		m.Snapshot(p, func(uint64, []byte) bool { n++; return true })
		fmt.Printf("bulk read of all %d records: %v (%.0fx the one-record cost)\n",
			n, p.Now()-start, float64(p.Now()-start)/float64(getTime))
	})
	eng.Run()

	// Output:
	// loaded 500 records into PM in 130.4ms (32 KB used)
	// power failed and rebooted
	// selective read of one record: "customer-0123|plan=gold|balance=4551" in 174us
	// bulk read of all 500 records: 39.32ms (226x the one-record cost)
}
