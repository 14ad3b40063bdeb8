// Package servernet simulates a ServerNet-style system area network: a
// memory-semantic, RDMA-capable fabric with hardware-acknowledged packets,
// a 32-bit network virtual address space per endpoint, and NIC-resident
// address translation with per-initiator access control.
//
// The model follows §3.2–§3.3 and §4.1 of Mehra & Fineberg (IPDPS 2004):
// one-sided RDMA read/write operations complete in tens of microseconds,
// packets are CRC-protected and acknowledged in hardware, and a target's
// memory can be accessed without involving any CPU on the target device.
package servernet

import (
	"errors"
	"fmt"
	"math/rand"

	"persistmem/internal/metrics"
	"persistmem/internal/sim"
)

// EndpointID identifies a fabric endpoint (a processor or an I/O device).
type EndpointID int

// Errors returned by fabric operations.
var (
	// ErrNoTranslation means no ATT entry covers the requested network
	// virtual address range.
	ErrNoTranslation = errors.New("servernet: no address translation for request")
	// ErrAccessDenied means an ATT entry exists but the initiator lacks
	// permission for the requested operation.
	ErrAccessDenied = errors.New("servernet: access denied by translation entry")
	// ErrEndpointDown means the target endpoint is not responding; the
	// initiator observes a timeout rather than a hardware ack.
	ErrEndpointDown = errors.New("servernet: endpoint down")
	// ErrCRC means a packet failed its CRC check and the transfer was not
	// acknowledged. The paper's guarantee is precisely that a completed
	// transfer arrived with a correct CRC, so a CRC failure surfaces as an
	// operation error the caller may retry.
	ErrCRC = errors.New("servernet: CRC error")
	// ErrZeroLength is returned for empty transfers, which the hardware
	// does not generate.
	ErrZeroLength = errors.New("servernet: zero-length transfer")
	// ErrNoPath means both redundant fabrics (the X and Y paths) are
	// down; nothing is reachable.
	ErrNoPath = errors.New("servernet: both fabric paths down")
)

// Config sets the fabric's settable costs. The defaults correspond to the
// second-generation ServerNet numbers quoted in the paper (software latency
// 10–20 µs; we default to the middle).
type Config struct {
	// SoftwareLatency is the initiator-side per-operation software cost
	// (user-mode verbs, doorbell, completion handling).
	SoftwareLatency sim.Time
	// CRCErrorRate is the probability that a given operation suffers an
	// unrecovered CRC error (fault injection; 0 in normal runs).
	CRCErrorRate float64
}

// DefaultConfig returns the calibration used across the repository.
func DefaultConfig() Config {
	return Config{SoftwareLatency: 15 * sim.Microsecond}
}

// The fabric's fixed hardware model.
const (
	// wireLatency is the one-way propagation plus switching delay.
	wireLatency = 1 * sim.Microsecond
	// bytesPerSecond is the usable link bandwidth (~1 Gbps).
	bytesPerSecond = 125 << 20
	// packetBytes is the maximum payload per fabric packet.
	packetBytes = 512
	// perPacketOverhead is the fixed cost per packet (header, ack
	// processing in hardware).
	perPacketOverhead = 300 * sim.Nanosecond
	// ackTimeout is how long an initiator waits for a hardware ack before
	// declaring the target down.
	ackTimeout = 50 * sim.Millisecond
)

// MinLatency returns a lower bound on the virtual time between an
// operation being initiated on this fabric and any effect becoming
// visible at another endpoint: software latency plus one wire hop plus
// one packet's fixed overhead (payload serialization only adds to this).
// It is the paper's 10–20 µs minimum fabric latency floor, 16.3 µs under
// DefaultConfig.
func (c Config) MinLatency() sim.Time {
	return c.SoftwareLatency + wireLatency + perPacketOverhead
}

// Message is a unit of the fabric's messaging service (the NSK message
// system rides on this). Endpoint inboxes carry *Message boxes drawn
// from the fabric's free list; the consumer copies the fields out and
// returns the box with FreeMessage.
type Message struct {
	From    EndpointID
	Payload interface{}
}

// Window is a region of target memory exposed through the ATT. The fabric
// calls it inline during RDMA operations — deliberately with no simulated
// target-CPU involvement, which is the property that makes NPMU access
// fast (§4.1).
type Window interface {
	// WriteAt stores data at byte offset off within the window.
	WriteAt(off int64, data []byte) error
	// ReadAt fills buf from byte offset off within the window.
	ReadAt(off int64, buf []byte) error
	// Len returns the window size in bytes.
	Len() int64
}

// Perm describes what an ATT entry allows.
type Perm struct {
	Read  bool
	Write bool
	// Initiators restricts access to specific endpoints; nil allows all.
	Initiators map[EndpointID]bool
}

func (pm Perm) allows(from EndpointID, write bool) bool {
	if write && !pm.Write {
		return false
	}
	if !write && !pm.Read {
		return false
	}
	if pm.Initiators != nil && !pm.Initiators[from] {
		return false
	}
	return true
}

// attEntry maps a network-virtual-address range onto a Window.
type attEntry struct {
	base   uint32
	size   uint32
	win    Window
	offset int64 // offset within win corresponding to base
	perm   Perm
}

// Endpoint is one attachment point on the fabric.
type Endpoint struct {
	fab  *Fabric
	id   EndpointID
	name string
	up   bool

	// link serializes transfers through the endpoint's port, providing
	// bandwidth contention.
	link *sim.Resource

	// att is this endpoint's NIC address translation table, sorted by base.
	att []attEntry

	// service is extra per-RDMA-operation latency at this endpoint. Zero
	// for true memory-semantic devices (hardware NPMU: no device CPU in
	// the path); positive for devices that interpose software, such as
	// the paper's PMP prototype process.
	service sim.Time

	// Inbox receives fabric messages addressed to this endpoint.
	Inbox *sim.Chan

	// Stats
	BytesIn, BytesOut   int64
	OpsServed, MsgsSeen int64
}

// Fabric is the simulated system area network. Per the paper's §4, it is
// dual-redundant: every transfer rides one of two independent paths (the
// NonStop X and Y fabrics). A path failure is transparent — hardware
// routes via the survivor — and only losing both paths makes endpoints
// unreachable.
type Fabric struct {
	eng *sim.Engine
	cfg Config
	eps map[EndpointID]*Endpoint
	rng *rand.Rand

	// pathUp tracks the X (0) and Y (1) fabrics; PathOps counts the
	// transfers each carried.
	pathUp  [2]bool
	PathOps [2]int64

	// msgfree recycles Message boxes delivered to endpoint inboxes.
	msgfree []*Message //simlint:box -- fabric message pool
	// xferfree recycles the Transfer scripts of Send, RDMAWrite and RDMARead.
	xferfree []*Transfer //simlint:box -- in-flight transfer pool

	// Instrument pointers, nil when unmetered (Record/Inc/Add nil-short-
	// circuit): completed transfer durations, op and byte counts.
	mTransfer *metrics.LatencyHist
	mOps      *metrics.Counter
	mBytes    *metrics.Counter
}

// SetMetrics attaches fabric transfer instruments (nil detaches).
func (f *Fabric) SetMetrics(ns *metrics.NetSpans) {
	if ns == nil {
		f.mTransfer, f.mOps, f.mBytes = nil, nil, nil
		return
	}
	f.mTransfer, f.mOps, f.mBytes = ns.Transfer, ns.Ops, ns.Bytes
}

// newMessage takes a Message box from the free list.
//
//simlint:hotpath
func (f *Fabric) newMessage() *Message {
	if n := len(f.msgfree); n > 0 {
		m := f.msgfree[n-1]
		f.msgfree[n-1] = nil
		f.msgfree = f.msgfree[:n-1]
		return m
	}
	return &Message{}
}

// FreeMessage recycles a consumed Message box. The caller asserts it
// copied the fields out and no other reference survives.
//
//simlint:hotpath
func (f *Fabric) FreeMessage(m *Message) {
	*m = Message{}
	f.msgfree = append(f.msgfree, m)
}

// New creates a fabric on the given engine.
func New(eng *sim.Engine, cfg Config) *Fabric {
	return &Fabric{
		eng:    eng,
		cfg:    cfg,
		eps:    make(map[EndpointID]*Endpoint),
		rng:    eng.DeriveRand("servernet"),
		pathUp: [2]bool{true, true},
	}
}

// pathIndex validates a fabric path id. Like Attach with duplicate
// endpoints, an out-of-range id is a configuration error and panics —
// silently aliasing it onto X/Y would make a fault-injection plan hit the
// wrong fabric.
func pathIndex(i int) int {
	if i < 0 || i > 1 {
		panic(fmt.Sprintf("servernet: invalid fabric path %d (0 = X, 1 = Y)", i))
	}
	return i
}

// FailPath takes fabric path i (0 = X, 1 = Y) out of service; transfers
// transparently use the survivor.
func (f *Fabric) FailPath(i int) { f.pathUp[pathIndex(i)] = false }

// RestorePath returns fabric path i to service.
func (f *Fabric) RestorePath(i int) { f.pathUp[pathIndex(i)] = true }

// PathUp reports whether fabric path i is in service.
func (f *Fabric) PathUp(i int) bool { return f.pathUp[pathIndex(i)] }

// pickPath selects a live path, preferring X (the hardware's primary
// route), and records the choice.
func (f *Fabric) pickPath() (int, bool) {
	for i := 0; i < 2; i++ {
		if f.pathUp[i] {
			f.PathOps[i]++
			return i, true
		}
	}
	return 0, false
}

// Engine returns the fabric's simulation engine.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Config returns the fabric configuration.
func (f *Fabric) Config() Config { return f.cfg }

// Attach creates a new endpoint with the given id and name. Attaching a
// duplicate id panics: endpoint identity is configuration, not data.
func (f *Fabric) Attach(id EndpointID, name string) *Endpoint {
	if _, dup := f.eps[id]; dup {
		panic(fmt.Sprintf("servernet: duplicate endpoint %d", id))
	}
	ep := &Endpoint{
		fab:   f,
		id:    id,
		name:  name,
		up:    true,
		link:  f.eng.NewResource(fmt.Sprintf("snet-link-%s", name), 1),
		Inbox: f.eng.NewChan(fmt.Sprintf("snet-inbox-%s", name)),
	}
	f.eps[id] = ep
	return ep
}

// Endpoint returns the endpoint with the given id, or nil.
func (f *Fabric) Endpoint(id EndpointID) *Endpoint { return f.eps[id] }

// ID returns the endpoint's fabric id.
func (ep *Endpoint) ID() EndpointID { return ep.id }

// Name returns the endpoint's configured name.
func (ep *Endpoint) Name() string { return ep.name }

// Up reports whether the endpoint is responding.
func (ep *Endpoint) Up() bool { return ep.up }

// PortInUse reports whether a transfer holds the endpoint's port now: 1
// mid-transfer, else 0. At quiescence it must be 0 — a process killed
// mid-transfer gives the port back with its death.
func (ep *Endpoint) PortInUse() int { return ep.link.InUse() }

// Fail takes the endpoint off the fabric: subsequent operations against it
// observe ErrEndpointDown after the ack timeout.
func (ep *Endpoint) Fail() { ep.up = false }

// Restore brings a failed endpoint back. Its ATT survives (the NIC state
// is device-resident); callers decide whether that is realistic for the
// failure being modeled and may call ClearATT.
func (ep *Endpoint) Restore() { ep.up = true }

// SetServiceLatency sets the endpoint's extra per-RDMA-operation latency
// (see the service field); d must be non-negative.
func (ep *Endpoint) SetServiceLatency(d sim.Time) {
	if d < 0 {
		panic("servernet: negative service latency")
	}
	ep.service = d
}

// ClearATT drops all translations, as after a device power cycle.
func (ep *Endpoint) ClearATT() { ep.att = nil }

// MapWindow installs a translation of [base, base+size) onto win at
// winOffset, with the given permissions. Ranges must not overlap existing
// entries and must fit the window; violations panic because translation
// programming is a management-plane action whose arguments are validated
// by the PMM before it reaches the NIC.
func (ep *Endpoint) MapWindow(base, size uint32, win Window, winOffset int64, perm Perm) {
	if size == 0 {
		panic("servernet: MapWindow with zero size")
	}
	if winOffset < 0 || winOffset+int64(size) > win.Len() {
		panic("servernet: MapWindow range exceeds window")
	}
	if uint64(base)+uint64(size) > 1<<32 {
		panic("servernet: MapWindow range exceeds 32-bit NVA space")
	}
	for _, e := range ep.att {
		if base < e.base+e.size && e.base < base+size {
			panic(fmt.Sprintf("servernet: MapWindow overlap at %#x", base))
		}
	}
	ep.att = append(ep.att, attEntry{base: base, size: size, win: win, offset: winOffset, perm: perm})
	// Keep sorted by base for lookup.
	for i := len(ep.att) - 1; i > 0 && ep.att[i].base < ep.att[i-1].base; i-- {
		ep.att[i], ep.att[i-1] = ep.att[i-1], ep.att[i]
	}
}

// UnmapWindow removes the translation with exactly the given base,
// reporting whether one existed.
func (ep *Endpoint) UnmapWindow(base uint32) bool {
	for i, e := range ep.att {
		if e.base == base {
			ep.att = append(ep.att[:i], ep.att[i+1:]...)
			return true
		}
	}
	return false
}

// Translations returns the number of live ATT entries.
func (ep *Endpoint) Translations() int { return len(ep.att) }

// lookup finds the ATT entry covering [nva, nva+n). Transfers may not
// cross entry boundaries (real NICs fault such requests).
func (ep *Endpoint) lookup(nva uint32, n int) (attEntry, error) {
	for _, e := range ep.att {
		if nva >= e.base && uint64(nva)+uint64(n) <= uint64(e.base)+uint64(e.size) {
			return e, nil
		}
	}
	return attEntry{}, ErrNoTranslation
}
