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

// writeOne performs the RDMA write to a single device with CRC retry.
//
//simlint:hotpath
func (r *Region) writeOne(p *cluster.Process, dev servernet.EndpointID, off int64, data []byte) error {
	fab := r.vol.cl.Fabric()
	from := p.CPU().Endpoint().ID()
	nva := r.info.Base + uint32(off)
	var err error
	for attempt := 0; attempt <= crcRetries; attempt++ {
		err = fab.RDMAWrite(p.Sim(), from, dev, nva, data)
		if !errors.Is(err, servernet.ErrCRC) {
			return err
		}
		r.RetriedTransfers++
	}
	return err
}

// Write synchronously persists data at byte offset off within the region,
// writing both mirrors. It succeeds if at least one mirror accepted the
// data (the volume is then degraded until the PMM repairs it); it fails
// with ErrBothMirrorsFailed if neither did.
//
//simlint:hotpath
func (r *Region) Write(p *cluster.Process, off int64, data []byte) error {
	if err := r.check(off, len(data)); err != nil {
		return err
	}
	wstart := p.Now()
	errPrim := r.writeOne(p, r.info.Primary, off, data)
	errMirr := errPrim
	if r.info.Mirror != r.info.Primary {
		errMirr = r.writeOne(p, r.info.Mirror, off, data)
	}
	switch {
	case errPrim == nil && errMirr == nil:
	case errPrim == nil || errMirr == nil:
		r.DegradedWrites++
	default:
		//simlint:allow hotalloc -- double-mirror-failure path, cold by construction
		return fmt.Errorf("%w: primary: %v; mirror: %v", ErrBothMirrorsFailed, errPrim, errMirr)
	}
	r.Writes++
	r.BytesWritten += int64(len(data))
	r.mWrite.Record(p.Now() - wstart)
	r.mWrites.Inc()
	r.mBytes.Add(int64(len(data)))
	return nil
}

// WriteRing writes data at byte pos of a log that wraps within the region:
// byte pos lives at offset pos % Size, and a write that crosses the end of
// the region is split there, its rest written from offset 0.
//
//simlint:hotpath
func (r *Region) WriteRing(p *cluster.Process, pos int64, data []byte) error {
	size := r.info.Size
	off := pos % size
	for len(data) > 0 {
		n := min(int64(len(data)), size-off)
		if err := r.Write(p, off, data[:n]); err != nil {
			return err
		}
		data = data[n:]
		off = 0
	}
	return nil
}

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
