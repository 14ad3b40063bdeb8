// Package pmclient is the client-side persistent memory access library of
// §4.1: processes attach to a PM volume, ask the PMM to create and open
// regions, and then perform synchronous RDMA reads and writes directly
// against the NPMU devices — no PMM involvement on the data path.
//
// Write semantics follow the paper exactly: "the API writes data to both
// the primary and mirror NPMUs; reads need not be replicated", and "when
// the call returns the data is either persistent or the call will return
// in error."
package pmclient

import (
	"errors"
	"fmt"

	"persistmem/internal/cluster"
	"persistmem/internal/metrics"
	"persistmem/internal/pmm"
	"persistmem/internal/servernet"
	"persistmem/internal/sim"
)

// Client-side errors.
var (
	// ErrOutOfRange means an access fell outside the region bounds.
	ErrOutOfRange = errors.New("pmclient: access out of region bounds")
	// ErrClosed means the region handle has been closed.
	ErrClosed = errors.New("pmclient: region closed")
	// ErrBothMirrorsFailed means neither NPMU of the volume accepted the
	// operation; data may not be persistent.
	ErrBothMirrorsFailed = errors.New("pmclient: both mirrors failed")
)

// crcRetries is how many times an operation is retried per device after a
// CRC-failed (unacknowledged) transfer before giving up.
const crcRetries = 2

// Volume is a client handle to a PM volume, identified by its PMM service
// name.
type Volume struct {
	cl      *cluster.Cluster
	pmmName string
}

// Attach binds a handle to the PM volume managed by the named PMM.
func Attach(cl *cluster.Cluster, pmmName string) *Volume {
	return &Volume{cl: cl, pmmName: pmmName}
}

// call sends a management request to the PMM.
func (v *Volume) call(p *cluster.Process, sz int, req interface{}) (pmm.Resp, error) {
	raw, err := p.Call(v.pmmName, sz, req)
	if err != nil {
		return pmm.Resp{}, fmt.Errorf("pmclient: PMM call failed: %w", err)
	}
	resp := raw.(pmm.Resp)
	if resp.Err != nil {
		return resp, resp.Err
	}
	return resp, nil
}

// Create makes a new region of the given size. It does not open it.
func (v *Volume) Create(p *cluster.Process, name string, size int64) error {
	_, err := v.call(p, 96+len(name), pmm.CreateReq{Name: name, Size: size, Owner: p.Name()})
	return err
}

// Open requests access to a region for the calling process's CPU and
// returns a handle for direct RDMA access.
func (v *Volume) Open(p *cluster.Process, name string) (*Region, error) {
	resp, err := v.call(p, 64+len(name), pmm.OpenReq{Name: name, ClientCPU: p.CPU().Index()})
	if err != nil {
		return nil, err
	}
	return &Region{vol: v, info: resp.Info, cpu: p.CPU().Index()}, nil
}

// OpenOrCreate opens the named region, creating it with the given size on
// first use, and attaches pm's write spans to the handle (nil leaves it
// unmetered). It makes three open attempts; a create that fails waits
// 10 ms before the next one, so a PMM mid-takeover can come back. The
// error names the region and the volume and wraps the last attempt's
// cause: the create's when it failed (a full volume, an unreachable PMM),
// else the open's.
func (v *Volume) OpenOrCreate(p *cluster.Process, name string, size int64, pm *metrics.PMSpans) (*Region, error) {
	var err error
	for attempt := 0; attempt < 3; attempt++ {
		var r *Region
		if r, err = v.Open(p, name); err == nil {
			r.SetMetrics(pm)
			return r, nil
		}
		if cerr := v.Create(p, name, size); cerr != nil {
			err = cerr
			p.Wait(10 * sim.Millisecond)
		}
	}
	return nil, fmt.Errorf("pmclient: region %q on %s: %w", name, v.pmmName, err)
}

// Delete removes a region that is not open anywhere.
func (v *Volume) Delete(p *cluster.Process, name string) error {
	_, err := v.call(p, 64+len(name), pmm.DeleteReq{Name: name})
	return err
}

// Resilver asks the PMM to rebuild the mirror after a device was
// replaced or returned from failure, returning the bytes copied. (The
// repair is synchronous within the cluster call timeout; very large
// volumes would be repaired in an operations window, not inline.)
func (v *Volume) Resilver(p *cluster.Process) (int64, error) {
	raw, err := p.Call(v.pmmName, 48, pmm.ResilverReq{})
	if err != nil {
		return 0, fmt.Errorf("pmclient: resilver call failed: %w", err)
	}
	resp := raw.(pmm.ResilverResp)
	return resp.BytesCopied, resp.Err
}

// List returns the volume's region table.
func (v *Volume) List(p *cluster.Process) ([]pmm.RegionMeta, error) {
	resp, err := v.call(p, 64, pmm.ListReq{})
	if err != nil {
		return nil, err
	}
	return resp.Regions, nil
}

// Region is an open region handle. Operations are synchronous: they
// return once the data is persistent (in at least one NPMU, normally
// both) or with an error.
type Region struct {
	vol    *Volume
	info   pmm.RegionInfo
	cpu    int
	closed bool

	// Stats observable by benchmarks.
	Writes, Reads       int64
	BytesWritten        int64
	BytesRead           int64
	DegradedWrites      int64 // writes that reached only one mirror
	RetriedTransfers    int64 // CRC-failed transfers that were retried
	PrimaryReadFailures int64 // reads that fell over to the mirror

	// Instrument pointers, nil when unmetered (Record/Inc/Add nil-short-
	// circuit).
	mWrite  *metrics.LatencyHist
	mWrites *metrics.Counter
	mBytes  *metrics.Counter

	legfree []*WriteLeg //simlint:box -- in-flight blocking-write leg pool
}

// SetMetrics attaches PM write-span instruments to this region handle
// (nil detaches).
func (r *Region) SetMetrics(pm *metrics.PMSpans) {
	if pm == nil {
		r.mWrite, r.mWrites, r.mBytes = nil, nil, nil
		return
	}
	r.mWrite, r.mWrites, r.mBytes = pm.Write, pm.Writes, pm.Bytes
}

// Info returns the region's access description.
func (r *Region) Info() pmm.RegionInfo { return r.info }

// Size returns the region size in bytes.
func (r *Region) Size() int64 { return r.info.Size }

// Name returns the region name.
func (r *Region) Name() string { return r.info.Name }

//simlint:hotpath
func (r *Region) check(off int64, n int) error {
	if r.closed {
		return ErrClosed
	}
	if off < 0 || off+int64(n) > r.info.Size {
		//simlint:allow hotalloc -- caller-bug path, cold by construction
		return fmt.Errorf("%w: off=%d len=%d size=%d", ErrOutOfRange, off, n, r.info.Size)
	}
	return nil
}

// Write synchronously persists data at byte offset off within the region,
// writing both mirrors. It succeeds if at least one mirror accepted the
// data (the volume is then degraded until the PMM repairs it); it fails
// with ErrBothMirrorsFailed if neither did. The process parks once for the
// whole write (see WriteLeg).
//
//simlint:hotpath
func (r *Region) Write(p *cluster.Process, off int64, data []byte) error {
	w := r.newLeg()
	defer r.freeLeg(w)
	if !w.Write(r, p, off, data) {
		p.Sim().ParkScript(w)
	}
	return w.err
}

// WriteRing writes data at byte pos of a log that wraps within the region:
// byte pos lives at offset pos % Size, and a write that crosses the end of
// the region is split there, its rest written from offset 0.
//
//simlint:hotpath
func (r *Region) WriteRing(p *cluster.Process, pos int64, data []byte) error {
	w := r.newLeg()
	defer r.freeLeg(w)
	if !w.WriteRing(r, p, pos, data) {
		p.Sim().ParkScript(w)
	}
	return w.err
}

//simlint:hotpath
func (r *Region) newLeg() *WriteLeg {
	if n := len(r.legfree); n > 0 {
		w := r.legfree[n-1]
		r.legfree[n-1] = nil
		r.legfree = r.legfree[:n-1]
		return w
	}
	return &WriteLeg{}
}

// freeLeg releases what w still holds — the fabric ports, if its process is
// being unwound mid-transfer — and recycles it.
//
//simlint:hotpath
func (r *Region) freeLeg(w *WriteLeg) {
	w.Abort()
	*w = WriteLeg{}
	r.legfree = append(r.legfree, w)
}

// WriteLeg is one region write in flight — Region.Write or WriteRing — as a
// script of fabric transfers: the RDMA write to the primary NPMU, each
// CRC-failed (unacknowledged) transfer retried up to crcRetries times, then
// the same to the mirror; a ring write that crosses the end of the region is
// two such writes. Region.Write and WriteRing arm a pooled one and park once
// on it. A process walking a longer script of its own keeps a WriteLeg, arms
// it with Write or WriteRing from its step function, forwards its wake-ups to
// Step until that reports true, reads Err and defers Abort as its kill guard.
// Arming reports true when the write is already over. The zero value is idle.
type WriteLeg struct {
	r *Region
	p *cluster.Process

	off  int64  // the current piece's offset; then the next piece's
	cur  []byte // the piece being written
	rest []byte // a ring write's pieces after it

	mirror  bool  // the transfer in flight goes to the mirror
	attempt int   // its retry count
	errPrim error // the primary's outcome, once the mirror's turn comes
	wstart  sim.Time
	xfer    servernet.Transfer

	err error
}

// Err returns the outcome of the finished write.
func (w *WriteLeg) Err() error { return w.err }

// Write arms a write of data at byte offset off of r, both mirrors.
//
//simlint:hotpath
func (w *WriteLeg) Write(r *Region, p *cluster.Process, off int64, data []byte) (done bool) {
	*w = WriteLeg{r: r, p: p}
	return w.begin(off, data)
}

// WriteRing arms a write of data at byte pos of the log that wraps within r.
//
//simlint:hotpath
func (w *WriteLeg) WriteRing(r *Region, p *cluster.Process, pos int64, data []byte) (done bool) {
	*w = WriteLeg{r: r, p: p, off: pos % r.info.Size, rest: data}
	return w.nextPiece()
}

// nextPiece starts a ring write's next piece, cut at the end of the region,
// or reports the write over.
//
//simlint:hotpath
func (w *WriteLeg) nextPiece() (done bool) {
	if len(w.rest) == 0 {
		return true
	}
	n := min(int64(len(w.rest)), w.r.info.Size-w.off)
	piece := w.rest[:n]
	w.rest = w.rest[n:]
	return w.begin(w.off, piece)
}

// begin starts one mirrored write of data at off.
//
//simlint:hotpath
func (w *WriteLeg) begin(off int64, data []byte) (done bool) {
	if err := w.r.check(off, len(data)); err != nil {
		w.err = err
		return true
	}
	w.off, w.cur = off, data
	w.wstart = w.p.Now()
	w.mirror, w.attempt = false, 0
	return w.transfer()
}

// transfer starts the RDMA write of the current piece to the device whose
// turn it is.
//
//simlint:hotpath
func (w *WriteLeg) transfer() (done bool) {
	r := w.r
	dev := r.info.Primary
	if w.mirror {
		dev = r.info.Mirror
	}
	from := w.p.CPU().Endpoint().ID()
	w.xfer = servernet.Transfer{}
	if r.vol.cl.Fabric().BeginRDMAWrite(&w.xfer, w.p.Sim(), from, dev, r.info.Base+uint32(w.off), w.cur) {
		return w.landed()
	}
	return false
}

// Step implements sim.Stepper: one wake-up of the parked writer.
//
//simlint:hotpath
func (w *WriteLeg) Step(p *sim.Proc) (done bool) {
	return w.xfer.Step(p) && w.landed()
}

// landed takes one transfer's outcome: retry a CRC failure, go on to the
// mirror, or finish the piece.
//
//simlint:hotpath
func (w *WriteLeg) landed() (done bool) {
	r := w.r
	err := w.xfer.Err()
	if errors.Is(err, servernet.ErrCRC) {
		r.RetriedTransfers++
		if w.attempt < crcRetries {
			w.attempt++
			return w.transfer()
		}
	}
	if !w.mirror {
		if r.info.Mirror == r.info.Primary {
			return w.written(err, err)
		}
		w.errPrim = err
		w.mirror, w.attempt = true, 0
		return w.transfer()
	}
	return w.written(w.errPrim, err)
}

// written finishes a piece with both devices' outcomes and starts the next.
//
//simlint:hotpath
func (w *WriteLeg) written(errPrim, errMirr error) (done bool) {
	r := w.r
	switch {
	case errPrim == nil && errMirr == nil:
	case errPrim == nil || errMirr == nil:
		r.DegradedWrites++
	default:
		//simlint:allow hotalloc -- double-mirror-failure path, cold by construction
		w.err = fmt.Errorf("%w: primary: %v; mirror: %v", ErrBothMirrorsFailed, errPrim, errMirr)
		return true
	}
	n := int64(len(w.cur))
	r.Writes++
	r.BytesWritten += n
	r.mWrite.Record(w.p.Now() - w.wstart)
	r.mWrites.Inc()
	r.mBytes.Add(n)
	w.cur, w.off = nil, 0
	return w.nextPiece()
}

// Abort is the kill guard: it releases the fabric ports a transfer holds at
// the instant its process is unwound. After a finished write it does nothing.
//
//simlint:hotpath
func (w *WriteLeg) Abort() { w.xfer.Abort() }

// Read fills buf from byte offset off. It reads the primary and falls
// over to the mirror on failure ("reads need not be replicated").
//
//simlint:hotpath
func (r *Region) Read(p *cluster.Process, off int64, buf []byte) error {
	if err := r.check(off, len(buf)); err != nil {
		return err
	}
	fab := r.vol.cl.Fabric()
	from := p.CPU().Endpoint().ID()
	nva := r.info.Base + uint32(off)
	err := fab.RDMARead(p.Sim(), from, r.info.Primary, nva, buf)
	if err != nil {
		r.PrimaryReadFailures++
		err = fab.RDMARead(p.Sim(), from, r.info.Mirror, nva, buf)
	}
	if err != nil {
		return err
	}
	r.Reads++
	r.BytesRead += int64(len(buf))
	return nil
}

// Replicas returns the number of distinct devices backing the region: 2
// for a mirrored volume, 1 for the unmirrored ablation.
func (r *Region) Replicas() int {
	if r.info.Mirror == r.info.Primary {
		return 1
	}
	return 2
}

// ReadReplica fills buf from one specific device of the mirrored pair
// (0 = primary, 1 = mirror), with no failover. Recovery code uses it to
// compare replica contents after a degraded period — a device that sat
// out a power failure holds only a stale prefix of its log region, and
// the normal Read's primary-first policy would hand that prefix to the
// scanner as if it were the whole trail.
func (r *Region) ReadReplica(p *cluster.Process, replica int, off int64, buf []byte) error {
	if replica < 0 || replica >= r.Replicas() {
		return fmt.Errorf("%w: replica %d of %d", ErrOutOfRange, replica, r.Replicas())
	}
	if err := r.check(off, len(buf)); err != nil {
		return err
	}
	dev := r.info.Primary
	if replica == 1 {
		dev = r.info.Mirror
	}
	fab := r.vol.cl.Fabric()
	from := p.CPU().Endpoint().ID()
	nva := r.info.Base + uint32(off)
	if err := fab.RDMARead(p.Sim(), from, dev, nva, buf); err != nil {
		return err
	}
	r.Reads++
	r.BytesRead += int64(len(buf))
	return nil
}

// Close revokes this handle's access with the PMM.
func (r *Region) Close(p *cluster.Process) error {
	if r.closed {
		return ErrClosed
	}
	r.closed = true
	_, err := r.vol.call(p, 64, pmm.CloseReq{Name: r.info.Name, ClientCPU: r.cpu})
	return err
}
