// Package cluster simulates the NonStop Kernel (NSK) execution
// environment the paper's prototype runs in (§4): a shared-nothing node
// of processors and I/O devices joined by a ServerNet fabric, where
// processes communicate only by messages, critical services run as
// process pairs with primary-to-backup checkpointing, and the message
// system re-routes traffic to the backup after a takeover.
package cluster

import (
	"errors"
	"fmt"
	"sort"

	"persistmem/internal/servernet"
	"persistmem/internal/sim"
)

// Errors returned by messaging operations.
var (
	// ErrNoProcess means no process is registered under the requested name.
	ErrNoProcess = errors.New("cluster: no such process")
	// ErrTimeout means a call received no reply in time.
	ErrTimeout = errors.New("cluster: call timed out")
	// ErrCPUDown means the operation required a failed processor.
	ErrCPUDown = errors.New("cluster: cpu down")
)

// Config sizes the simulated node.
type Config struct {
	// CPUs is the number of processors (the paper's system: 4, plus a 5th
	// for the PMP in the PM experiments).
	CPUs int
	// Net configures the ServerNet fabric.
	Net servernet.Config
}

// DefaultConfig returns the calibration used across the repository.
func DefaultConfig() Config {
	return Config{CPUs: 4, Net: servernet.DefaultConfig()}
}

// The message system's calibration.
const (
	// msgSystemOverhead is the per-message software cost of the NSK
	// message system, in addition to fabric time.
	msgSystemOverhead = 10 * sim.Microsecond
	// CallTimeout bounds request-reply calls.
	CallTimeout = 2 * sim.Second
	// TakeoverDelay is the fault-detection plus takeover time for process
	// pairs ("a second or less" in the paper).
	TakeoverDelay = 400 * sim.Millisecond
)

// Cluster is one simulated NonStop node.
type Cluster struct {
	eng  *sim.Engine
	fab  *servernet.Fabric
	cfg  Config
	cpus []*CPU

	// registry maps service names to their current location; takeover
	// re-points a name at the backup, which is how the simulation models
	// NSK's message re-routing.
	registry map[string]*registration

	nextDevEP servernet.EndpointID

	// envfree and framefree recycle message-plumbing boxes: pointers
	// travel through inbox interfaces without allocating, and the single
	// consumer of each box returns it here after copying the contents out.
	// The simulation is single-threaded per engine, so plain slices work.
	envfree   []*Envelope    //simlint:box -- message-envelope pool
	framefree []*routedFrame //simlint:box -- routed-frame pool
	legfree   []*Leg         //simlint:box -- in-flight blocking-call leg pool
}

// newEnvelope takes an Envelope box from the free list.
//
//simlint:hotpath
func (cl *Cluster) newEnvelope() *Envelope {
	if n := len(cl.envfree); n > 0 {
		ev := cl.envfree[n-1]
		cl.envfree[n-1] = nil
		cl.envfree = cl.envfree[:n-1]
		return ev
	}
	return &Envelope{}
}

// freeEnvelope recycles a consumed Envelope box. The caller asserts it
// copied the contents out and no other reference survives.
//
//simlint:hotpath
func (cl *Cluster) freeEnvelope(ev *Envelope) {
	*ev = Envelope{}
	cl.envfree = append(cl.envfree, ev)
}

//simlint:hotpath
func (cl *Cluster) newFrame() *routedFrame {
	if n := len(cl.framefree); n > 0 {
		fr := cl.framefree[n-1]
		cl.framefree[n-1] = nil
		cl.framefree = cl.framefree[:n-1]
		return fr
	}
	return &routedFrame{}
}

//simlint:hotpath
func (cl *Cluster) freeFrame(fr *routedFrame) {
	*fr = routedFrame{}
	cl.framefree = append(cl.framefree, fr)
}

type registration struct {
	cpu   *CPU
	inbox *sim.Chan
}

// New builds a cluster with cfg.CPUs processors.
func New(eng *sim.Engine, cfg Config) *Cluster {
	if cfg.CPUs <= 0 {
		panic("cluster: need at least one CPU")
	}
	cl := &Cluster{
		eng:      eng,
		fab:      servernet.New(eng, cfg.Net),
		cfg:      cfg,
		registry: make(map[string]*registration),
	}
	for i := 0; i < cfg.CPUs; i++ {
		cpu := &CPU{
			cl:    cl,
			index: i,
			ep:    cl.fab.Attach(servernet.EndpointID(i), fmt.Sprintf("cpu%d", i)),
			exec:  eng.NewResource(fmt.Sprintf("cpu%d-exec", i), 1),
			up:    true,
			procs: make(map[*sim.Proc]struct{}),
		}
		cpu.reap = func(sp *sim.Proc) { delete(cpu.procs, sp) }
		cl.cpus = append(cl.cpus, cpu)
	}
	cl.nextDevEP = servernet.EndpointID(cfg.CPUs + 1000)
	for _, cpu := range cl.cpus {
		cpu.startDispatcher()
	}
	return cl
}

// Engine returns the simulation engine.
func (cl *Cluster) Engine() *sim.Engine { return cl.eng }

// Fabric returns the ServerNet fabric.
func (cl *Cluster) Fabric() *servernet.Fabric { return cl.fab }

// Config returns the cluster configuration.
func (cl *Cluster) Config() Config { return cl.cfg }

// CPU returns processor i.
func (cl *Cluster) CPU(i int) *CPU { return cl.cpus[i] }

// NumCPUs returns the processor count.
func (cl *Cluster) NumCPUs() int { return len(cl.cpus) }

// AllUp reports whether every CPU is running. Reboot-style recovery code
// uses it to make power restoration idempotent: RestorePower on a node
// that never lost power would wrongly wipe the live service registry.
func (cl *Cluster) AllUp() bool {
	for _, c := range cl.cpus {
		if !c.up {
			return false
		}
	}
	return true
}

// AttachDevice adds an I/O device endpoint (NPMU, adapter) to the fabric.
// Devices are not tied to any CPU: per the paper, they keep functioning
// when their controlling processor fails.
func (cl *Cluster) AttachDevice(name string) *servernet.Endpoint {
	ep := cl.fab.Attach(cl.nextDevEP, name)
	cl.nextDevEP++
	return ep
}

// Register binds name to a process's inbox, making it reachable via Send
// and Call. Re-registering a name moves it (takeover re-routing).
func (cl *Cluster) Register(name string, proc *Process) {
	cl.registry[name] = &registration{cpu: proc.cpu, inbox: proc.Inbox()}
}

// Unregister removes a name binding.
func (cl *Cluster) Unregister(name string) { delete(cl.registry, name) }

// LookupCPU reports which CPU currently hosts the named service, or -1.
func (cl *Cluster) LookupCPU(name string) int {
	if r, ok := cl.registry[name]; ok {
		return r.cpu.index
	}
	return -1
}

// PowerFail simulates losing power to the node: every CPU fails (killing
// its processes and volatile memory) and every device endpoint is taken
// down. Device state durability is decided by each device model: disk
// platters and NPMU non-volatile RAM survive; NIC translation state and
// plain RAM do not.
func (cl *Cluster) PowerFail() {
	for _, c := range cl.cpus {
		if c.up {
			c.Fail()
		}
	}
}

// RestorePower brings all CPUs back up (empty, as after a reboot).
// Registered names are gone; recovery code must restart services.
func (cl *Cluster) RestorePower() {
	cl.registry = make(map[string]*registration)
	for _, c := range cl.cpus {
		c.Restore()
	}
}

// CPU is one processor of the node. A CPU executes processes, which share
// its single execution resource, and owns a fabric endpoint.
type CPU struct {
	cl    *Cluster
	index int
	ep    *servernet.Endpoint
	exec  *sim.Resource
	up    bool
	procs map[*sim.Proc]struct{}
	// reap drops an exited process from procs: one func value, installed as
	// the reaper of every process the CPU spawns.
	reap func(sp *sim.Proc)

	// Stats
	ComputeTime sim.Time
	// Failures counts the halts the CPU has taken. Read before and after a
	// window it tells whether the CPU went down inside it, which Up — true
	// again after a Restore — cannot.
	Failures int
}

// Index returns the CPU number.
func (c *CPU) Index() int { return c.index }

// Endpoint returns the CPU's fabric endpoint.
func (c *CPU) Endpoint() *servernet.Endpoint { return c.ep }

// Up reports whether the CPU is running.
func (c *CPU) Up() bool { return c.up }

// InUse reports whether a process holds the CPU's execution resource now:
// 1 mid-Compute, else 0. At quiescence it must be 0 — a process killed
// mid-Compute releases the CPU with its death.
func (c *CPU) InUse() int { return c.exec.InUse() }

// Fail halts the CPU: all its processes are killed (their volatile state
// is lost with them), its fabric endpoint stops responding, and names
// registered to it are dropped. Processes die in spawn order — each kill
// enqueues a wake-up, so the kill sequence is schedule-visible and must
// not depend on map iteration order.
func (c *CPU) Fail() {
	if !c.up {
		return
	}
	c.up = false
	c.Failures++
	c.ep.Fail()
	victims := make([]*sim.Proc, 0, len(c.procs))
	//simlint:ordered -- collected into a slice and sorted by spawn id below
	for p := range c.procs {
		victims = append(victims, p)
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].ID() < victims[j].ID() })
	for _, p := range victims {
		p.Kill()
	}
	//simlint:ordered -- pure deletes; no effect depends on visit order
	for name, r := range c.cl.registry {
		if r.cpu == c {
			delete(c.cl.registry, name)
		}
	}
}

// Restore restarts a failed CPU with no processes (beyond a fresh message
// dispatcher).
func (c *CPU) Restore() {
	if c.up {
		return
	}
	c.up = true
	c.ep.Restore()
	c.startDispatcher()
}

// Process is a simulated OS process bound to a CPU.
type Process struct {
	cpu  *CPU
	name string
	proc *sim.Proc
	// inbox is nil until Inbox first asks for it: most processes are
	// per-request continuations that call out and never receive.
	inbox *sim.Chan
}

// Inbox returns the channel the message system delivers the process's
// envelopes into, creating it on first use — by Register, so a message can
// only ever be routed to an inbox that exists, or by the first receive.
func (p *Process) Inbox() *sim.Chan {
	if p.inbox == nil {
		p.inbox = p.cpu.cl.eng.NewChan(p.name + "-inbox")
	}
	return p.inbox
}

// Spawn starts body as a process named name on this CPU.
func (c *CPU) Spawn(name string, body func(p *Process)) *Process {
	if !c.up {
		panic("cluster: Spawn on failed CPU " + fmt.Sprint(c.index))
	}
	pr := &Process{cpu: c, name: name}
	pr.proc = c.cl.eng.Spawn(name, func(sp *sim.Proc) {
		body(pr)
	})
	c.procs[pr.proc] = struct{}{}
	pr.proc.SetReaper(c.reap)
	return pr
}

// Restart starts a finished process again on its CPU, as sim.Proc.Restart
// does: a new spawn id, the same name and body, back in the CPU's live set.
// It panics on a failed CPU, and on a process that has an inbox, because an
// envelope still queued there would reach the next run.
//
//simlint:hotpath
func (p *Process) Restart() {
	c := p.cpu
	if !c.up {
		panic("cluster: Restart of " + p.name + " on a failed CPU")
	}
	if p.inbox != nil {
		panic("cluster: Restart of " + p.name + ", which has an inbox")
	}
	p.proc.Restart()
	c.procs[p.proc] = struct{}{}
	p.proc.SetReaper(c.reap)
}

// Name returns the process name.
func (p *Process) Name() string { return p.name }

// CPU returns the hosting processor.
func (p *Process) CPU() *CPU { return p.cpu }

// Cluster returns the owning cluster.
func (p *Process) Cluster() *Cluster { return p.cpu.cl }

// Sim returns the underlying simulation process, for use with kernel
// primitives (channels, signals).
func (p *Process) Sim() *sim.Proc { return p.proc }

// Now returns the current virtual time.
func (p *Process) Now() sim.Time { return p.cpu.cl.eng.Now() }

// Kill terminates the process.
func (p *Process) Kill() { p.proc.Kill() }

// Done reports whether the process has exited.
func (p *Process) Done() bool { return p.proc.Done() }

// Compute occupies the CPU for duration d of work, queueing behind other
// processes on the same processor.
//
//simlint:hotpath
func (p *Process) Compute(d sim.Time) {
	cl := p.cpu.cl
	l := cl.newLeg()
	defer cl.freeLeg(l)
	p.park(l, l.Compute(p, d))
}

// Wait suspends the process without using CPU (e.g. waiting on I/O).
func (p *Process) Wait(d sim.Time) { p.proc.Wait(d) }
