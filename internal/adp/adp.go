// Package adp implements the Audit Data Process — the NSK log writer the
// paper's prototype modified (§4.2). The ADP runs as a process pair and
// owns one audit-trail stream. Database writers send it audit deltas;
// the transaction monitor asks it to make the trail durable through a
// given LSN before transactions commit.
//
// Two durability backends are provided:
//
//   - Disk: the standard configuration. Appends are buffered in process
//     memory (and checkpointed to the backup so an ADP failure loses no
//     audit), and flushes write the buffer sequentially to an audit disk
//     volume. Concurrent commit requests piggyback on in-progress flushes
//     — classic group commit, which is what makes boxcarring matter.
//   - PM: the paper's modification. Every append is synchronously RDMA-
//     written to a mirrored persistent-memory region, so the trail is
//     durable immediately, flushes are no-ops, and the data-checkpoint to
//     the backup disappears (§3.4's "eliminates repeated persistence
//     actions").
package adp

import (
	"fmt"

	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/disk"
	"persistmem/internal/metrics"
	"persistmem/internal/pmclient"
	"persistmem/internal/sim"
)

// Mode selects the durability backend.
type Mode int

// Durability backends.
const (
	// Disk flushes audit to a disk volume at commit time.
	Disk Mode = iota
	// PM writes audit synchronously to persistent memory on append.
	PM
)

// String names the mode.
func (m Mode) String() string {
	if m == PM {
		return "pm"
	}
	return "disk"
}

// Config describes one ADP instance.
type Config struct {
	// Name is the service name (e.g. "$ADP0").
	Name string
	// PrimaryCPU and BackupCPU place the process pair.
	PrimaryCPU, BackupCPU int
	// Mode selects the durability backend.
	Mode Mode

	// Volume is the audit disk volume (Disk mode).
	Volume *disk.Volume

	// PMVolume names the PM volume's PMM service (PM mode); RegionSize is
	// the log region's size. The log wraps within it, and nothing
	// reclaims old audit first: a trail longer than the region overwrites
	// its own oldest records.
	PMVolume   string
	RegionSize int64

	// NoGroupCommit disables flush piggybacking: each commit performs its
	// own device flush (the A1 ablation).
	NoGroupCommit bool

	// Metrics optionally wires boxcar (group-commit) spans and PM write
	// spans into a store-wide registry. Nil disables all recording.
	Metrics *metrics.Registry
}

// CPU costs of the log writer: per request handled, and extra per
// physical disk flush.
const (
	requestCPU = 10 * sim.Microsecond
	flushCPU   = 30 * sim.Microsecond
)

// protocol messages
//
// A message is a box: it is sent as a pointer, its sender owns it from the
// send to the reply, the server writes the response into its Resp field and
// replies with the box itself. A box whose call failed or timed out is never
// reused, so a late reply writes only into a box nobody reads.
type (
	// AppendReq adds pre-encoded audit records to the trail.
	AppendReq struct {
		Data []byte
		Resp AppendResp
	}
	// AppendResp acknowledges an append. In PM mode the bytes are already
	// durable; in Disk mode they are buffered and backup-protected.
	AppendResp struct {
		// End is the LSN just past the appended bytes.
		End audit.LSN
		Err error
	}
	// CommitReq appends a commit record for Txn and replies once it (and
	// all earlier audit) is durable. A non-empty Outcome upgrades the
	// record to a cross-shard outcome record (audit.RecOutcome) whose body
	// carries the encoded outcome — the commit point for two-phase
	// transactions.
	CommitReq struct {
		Txn     audit.TxnID
		Outcome []byte
		Resp    CommitResp
	}
	// CommitResp reports the durable commit.
	CommitResp struct {
		LSN audit.LSN
		Err error
	}
	// AbortReq appends an abort record (lazily durable); the reply is the
	// bare box.
	AbortReq struct {
		Txn audit.TxnID
	}
	// FlushReq asks for durability through UpTo.
	FlushReq struct {
		UpTo audit.LSN
		Resp FlushResp
	}
	// FlushResp acknowledges durability through Durable.
	FlushResp struct {
		Durable audit.LSN
		Err     error
	}
	// StateReq asks for a Stats snapshot (tests and harnesses).
	StateReq struct {
		Resp Stats
	}
)

// Stats describes an ADP's activity.
type Stats struct {
	Mode        Mode
	NextLSN     audit.LSN
	DurableLSN  audit.LSN
	Appends     int64
	AppendBytes int64
	Flushes     int64 // physical device flushes (Disk mode)
	FlushBytes  int64
	Commits     int64
	Aborts      int64
	// GroupedCommits counts commit/flush waiters satisfied by a flush
	// they shared with others (group-commit effectiveness).
	GroupedCommits int64
	// PMWrites counts synchronous PM writes (PM mode; each is mirrored,
	// so bytes hit two NPMUs).
	PMWrites int64
	PMBytes  int64
	// RegionErr is why the latest incarnation could not open its PM log
	// region (PM mode), after which the pair retired; nil otherwise.
	RegionErr error
}

// adpState is the checkpointable log-writer state.
type adpState struct {
	nextLSN    audit.LSN
	durableLSN audit.LSN
	// buf holds encoded-but-unflushed audit (Disk mode); bufStart is the
	// LSN of buf[0].
	buf      []byte
	bufStart audit.LSN
}

func (s *adpState) clone() *adpState {
	c := *s
	c.buf = append([]byte(nil), s.buf...)
	return &c
}

// ckDelta is the checkpoint wire format: instead of cloning the whole
// buffered trail per append, the primary ships only the appended bytes
// plus the control fields, and the backup folds them into its own state
// image (the NSK absorb pattern). data aliases primary memory, which is
// safe because Checkpoint is a synchronous call: the backup copies the
// bytes out before replying, and the primary is parked until then.
type ckDelta struct {
	data       []byte
	reset      bool // buffer flushed: drop absorbed bytes first
	nextLSN    audit.LSN
	durableLSN audit.LSN
	bufStart   audit.LSN
}

// absorbDelta folds one checkpointed delta into the backup's state image.
func absorbDelta(cur, delta interface{}) interface{} {
	st, _ := cur.(*adpState)
	if st == nil {
		st = &adpState{}
	}
	d := delta.(*ckDelta)
	if d.reset {
		st.buf = st.buf[:0]
	}
	st.buf = append(st.buf, d.data...)
	st.nextLSN = d.nextLSN
	st.durableLSN = d.durableLSN
	st.bufStart = d.bufStart
	return st
}

// ADP is a running audit data process pair.
type ADP struct {
	cl   *cluster.Cluster
	cfg  Config
	pair *cluster.Pair

	stats Stats

	// ckfree recycles ckDelta boxes (absorbed synchronously, so a box is
	// reusable as soon as Checkpoint returns).
	ckfree []*ckDelta //simlint:box -- checkpoint-delta pool

	// Instrument pointers, nil when unmetered (methods on m nil-short-
	// circuit; mFlush is copied out so no field access touches a nil
	// bundle on the hot path).
	m      *metrics.ADPSpans
	mFlush *metrics.LatencyHist
	mPM    *metrics.PMSpans
}

// Start launches the ADP process pair.
func Start(cl *cluster.Cluster, cfg Config) *ADP {
	if cfg.Mode == Disk && cfg.Volume == nil {
		panic("adp: Disk mode requires a volume")
	}
	if cfg.Mode == PM && cfg.PMVolume == "" {
		panic("adp: PM mode requires a PM volume name")
	}
	if cfg.RegionSize == 0 {
		cfg.RegionSize = 16 << 20
	}
	a := &ADP{cl: cl, cfg: cfg}
	if cfg.Metrics != nil {
		a.m = cfg.Metrics.ADP
		a.mFlush = cfg.Metrics.ADP.FlushDisk
		a.mPM = cfg.Metrics.PM
	}
	a.stats.Mode = cfg.Mode
	a.pair = cl.StartPairAbsorb(cfg.Name, cfg.PrimaryCPU, cfg.BackupCPU, a.serve, absorbDelta)
	return a
}

// Name returns the ADP service name.
func (a *ADP) Name() string { return a.cfg.Name }

// Pair returns the process pair, for fault injection.
func (a *ADP) Pair() *cluster.Pair { return a.pair }

// Stats returns a snapshot of activity counters.
func (a *ADP) Stats() Stats {
	return a.stats
}

// Stop shuts the ADP down.
func (a *ADP) Stop() { a.pair.Stop() }

// RegionName returns the PM log region name for this ADP.
func (a *ADP) RegionName() string { return a.cfg.Name + "-log" }

// flushWaiter is a pending commit/flush reply; ev.Payload is its request box
// (*CommitReq or *FlushReq).
type flushWaiter struct {
	upTo audit.LSN
	ev   cluster.Envelope
	enq  sim.Time // when the waiter joined the boxcar
}

func (a *ADP) serve(ctx *cluster.PairCtx) {
	st := &adpState{}
	if ctx.Restored != nil {
		// Clone: while the pair runs unprotected, checkpoints absorb into
		// the pair's shadow state, which must not alias the serving copy
		// (absorbing a delta whose data aliases st.buf would double it).
		st = ctx.Restored.(*adpState).clone()
	}

	var region *pmclient.Region
	if a.cfg.Mode == PM {
		var err error
		region, err = pmclient.Attach(a.cl, a.cfg.PMVolume).OpenOrCreate(ctx.Process, a.RegionName(), a.cfg.RegionSize, a.mPM)
		a.stats.RegionErr = err
		if err != nil {
			return // PM volume unreachable; pair retires
		}
	}

	// scratch holds one encoded control record at a time. The serve loop
	// is a single simulated process and both backends copy the bytes out
	// before append returns, so the buffer is reusable across requests.
	// batch and waiters are likewise reused across loop iterations.
	var scratch []byte
	var batch []cluster.Envelope
	var waiters []flushWaiter

	for {
		batch = append(batch[:0], ctx.Recv())
		if !a.cfg.NoGroupCommit {
			for {
				more, ok := ctx.TryRecv()
				if !ok {
					break
				}
				batch = append(batch, more)
			}
		}

		waiters = waiters[:0]
		for _, ev := range batch {
			ctx.Compute(requestCPU)
			// A request is its sender's box, recycled only after the reply, so
			// reading it here — and writing the response into it — is safe.
			switch req := ev.Payload.(type) {
			case *AppendReq:
				a.handleAppend(ctx, st, region, ev, req)
			case *CommitReq:
				waiters = a.handleCommit(ctx, st, region, &scratch, waiters, ev, req)
			case *AbortReq:
				a.handleAbort(ctx, st, region, &scratch, ev, req)
			case *FlushReq:
				a.m.OnWaiterIn()
				waiters = append(waiters, flushWaiter{upTo: req.UpTo, ev: ev, enq: ctx.Process.Now()})
			case *StateReq:
				req.Resp = a.stats
				req.Resp.NextLSN = st.nextLSN
				req.Resp.DurableLSN = st.durableLSN
				ev.Reply(req)
			default:
				// Every sender is in this repository: a programming error.
				panic(fmt.Sprintf("adp: unknown request %T", req))
			}
		}

		if len(waiters) == 0 {
			continue // appends checkpointed individually before their acks
		}

		// Make the trail durable through the highest requested LSN. In PM
		// mode appends already were; in Disk mode this is the group-commit
		// flush: every waiter in this batch shares one device write.
		var err error
		if a.cfg.Mode == Disk {
			err = a.flushDisk(ctx, st)
			a.checkpoint(ctx, st, 0, err == nil) // a failed flush left the buffer
		}
		if len(waiters) > 1 {
			a.stats.GroupedCommits += int64(len(waiters))
		}
		durableAt := ctx.Process.Now()
		for _, w := range waiters {
			// Every reply — success or error — takes its waiter out of the
			// boxcar, keeping In == Flushed + Pending balanced; only waiters
			// lost to a killed primary stay Pending.
			a.m.OnWaiterFlushed(durableAt - w.enq)
			switch req := w.ev.Payload.(type) {
			case *CommitReq:
				req.Resp = CommitResp{Err: err}
				if err == nil {
					req.Resp.LSN = w.upTo
				}
			case *FlushReq:
				req.Resp = FlushResp{Err: err}
				if err == nil {
					req.Resp.Durable = st.durableLSN
				}
			}
			w.ev.Reply(w.ev.Payload)
		}
	}
}

//simlint:hotpath
func (a *ADP) handleAppend(ctx *cluster.PairCtx, st *adpState, region *pmclient.Region, ev cluster.Envelope, req *AppendReq) {
	end, err := a.append(ctx, st, region, req.Data)
	if err == nil {
		a.stats.Appends++
		a.stats.AppendBytes += int64(len(req.Data))
	}
	req.Resp = AppendResp{End: end, Err: err}
	ev.Reply(req)
}

//simlint:hotpath
func (a *ADP) handleCommit(ctx *cluster.PairCtx, st *adpState, region *pmclient.Region, scratch *[]byte, waiters []flushWaiter, ev cluster.Envelope, req *CommitReq) []flushWaiter {
	rec := audit.Record{Type: audit.RecCommit, Txn: req.Txn}
	if len(req.Outcome) > 0 {
		rec.Type, rec.Body = audit.RecOutcome, req.Outcome
	}
	*scratch = audit.AppendRecord((*scratch)[:0], &rec)
	end, err := a.append(ctx, st, region, *scratch)
	if err != nil {
		req.Resp = CommitResp{Err: err}
		ev.Reply(req)
		return waiters
	}
	a.stats.Commits++
	a.m.OnWaiterIn()
	return append(waiters, flushWaiter{upTo: end, ev: ev, enq: ctx.Process.Now()})
}

func (a *ADP) handleAbort(ctx *cluster.PairCtx, st *adpState, region *pmclient.Region, scratch *[]byte, ev cluster.Envelope, req *AbortReq) {
	rec := audit.Record{Type: audit.RecAbort, Txn: req.Txn}
	*scratch = audit.AppendRecord((*scratch)[:0], &rec)
	if _, err := a.append(ctx, st, region, *scratch); err == nil {
		a.stats.Aborts++
	}
	ev.Reply(req)
}

// append adds encoded records to the trail. Disk mode buffers; PM mode
// writes through synchronously to the mirrored region.
func (a *ADP) append(ctx *cluster.PairCtx, st *adpState, region *pmclient.Region, data []byte) (audit.LSN, error) {
	start := st.nextLSN
	end := start + audit.LSN(len(data))
	switch a.cfg.Mode {
	case Disk:
		if len(st.buf) == 0 {
			st.bufStart = start
		}
		st.buf = append(st.buf, data...)
		st.nextLSN = end
		// The unflushed buffer must survive an ADP process failure:
		// checkpoint the delta to the backup before acknowledging.
		a.checkpoint(ctx, st, len(data), false)
	case PM:
		// Synchronous mirrored write; the log wraps within the region.
		if err := region.WriteRing(ctx.Process, int64(start), data); err != nil {
			return start, err
		}
		st.nextLSN = end
		st.durableLSN = end
		a.stats.PMWrites++
		a.stats.PMBytes += int64(len(data))
		// Only tiny control state needs backup protection now: the log
		// itself is already persistent.
		a.checkpoint(ctx, st, 0, false)
	}
	return end, nil
}

// flushDisk writes the buffered trail sequentially to the audit volume.
func (a *ADP) flushDisk(ctx *cluster.PairCtx, st *adpState) error {
	if len(st.buf) == 0 {
		return nil
	}
	fstart := ctx.Process.Now()
	ctx.Compute(flushCPU)
	volOff := int64(st.bufStart) % a.cfg.Volume.Capacity()
	n := len(st.buf)
	if volOff+int64(n) > a.cfg.Volume.Capacity() {
		// Wrap the volume like a circular trail (auxiliary audit volumes
		// are recycled after control points).
		first := a.cfg.Volume.Capacity() - volOff
		if err := a.cfg.Volume.Write(ctx.Sim(), volOff, st.buf[:first]); err != nil {
			return err
		}
		if err := a.cfg.Volume.Write(ctx.Sim(), 0, st.buf[first:]); err != nil {
			return err
		}
	} else if err := a.cfg.Volume.Write(ctx.Sim(), volOff, st.buf); err != nil {
		return err
	}
	a.stats.Flushes++
	a.stats.FlushBytes += int64(n)
	a.mFlush.Record(ctx.Process.Now() - fstart)
	st.durableLSN = st.bufStart + audit.LSN(n)
	st.buf = st.buf[:0]
	st.bufStart = st.durableLSN
	return nil
}

// checkpoint protects state at the backup. deltaBytes sizes the wire
// payload: in Disk mode the appended audit must cross to the backup; in
// PM mode only counters do. The payload is a delta (the last deltaBytes
// of the buffer plus control fields), not a state clone; the backup's
// absorbDelta reconstructs the full image.
//
//simlint:hotpath
func (a *ADP) checkpoint(ctx *cluster.PairCtx, st *adpState, deltaBytes int, reset bool) {
	sz := 48 + deltaBytes
	d := a.newDelta()
	if deltaBytes > 0 {
		d.data = st.buf[len(st.buf)-deltaBytes:]
	}
	d.reset = reset
	d.nextLSN = st.nextLSN
	d.durableLSN = st.durableLSN
	d.bufStart = st.bufStart
	if err := ctx.Checkpoint(sz, d); err == nil {
		// Absorbed (or folded into the shadow state) synchronously. On
		// error the delta may still sit undelivered in the backup's inbox,
		// so the box cannot be recycled.
		a.freeDelta(d)
	}
}

//simlint:hotpath
func (a *ADP) newDelta() *ckDelta {
	if n := len(a.ckfree); n > 0 {
		d := a.ckfree[n-1]
		a.ckfree[n-1] = nil
		a.ckfree = a.ckfree[:n-1]
		return d
	}
	return &ckDelta{}
}

//simlint:hotpath
func (a *ADP) freeDelta(d *ckDelta) {
	*d = ckDelta{}
	a.ckfree = append(a.ckfree, d)
}
