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

	// From here on the primary is its log-writing script: it parks for good
	// and the dispatcher walks each boxcar's legs. A kill unwinds it out of
	// ServeLegs, and the guard releases the leg in flight.
	w := &writer{a: a, p: ctx.Process, st: st, region: region}
	defer w.abort()
	ctx.Inbox().ServeLegs(ctx.Sim(), w)
}

// wrPhase names the leg the writer is parked on: the one whose outcome it
// takes next.
type wrPhase uint8

const (
	wrIdle       wrPhase = iota // no boxcar in flight
	wrRequestCPU                // a request's CPU cost
	wrAppendPM                  // PM: the appended bytes' mirrored write
	wrAppendCkpt                // the append's checkpoint: its bytes (Disk), the counters (PM)
	wrFlushCPU                  // Disk: the flush's CPU cost
	wrFlushWrite                // Disk: a volume write of the flush
	wrResetCkpt                 // Disk: the checkpoint after the flush
)

// writer is the ADP's log-writing path as a script: each boxcar — the
// requests that woke it, and with group commit every one queued behind them —
// is a phase machine over legs (a CPU cost, a checkpoint to the backup, a PM
// region write, a volume write), walked by the dispatcher on whatever stack
// delivers its wake-ups. The primary keeps one for its incarnation's life and
// serves its inbox with it, one boxcar at a time, exactly as a loop of
// blocking calls would — the same events in the same slots — without ever
// being switched into.
//
// Each request takes its CPU cost, then its append: a Disk buffer and the
// checkpoint of its bytes, or a PM write and the checkpoint of the counters.
// Once the boxcar's requests are served, a Disk flush writes the buffer (two
// volume writes when it wraps the volume's end) and checkpoints the reset,
// and every waiter gets its reply.
type writer struct {
	a      *ADP
	p      *cluster.Process
	st     *adpState
	region *pmclient.Region // PM mode; nil in Disk mode

	phase wrPhase
	leg   cluster.Leg
	pmw   pmclient.WriteLeg
	dw    disk.WriteLeg

	// The boxcar in flight: its requests, the one being served, and the
	// commit and flush waiters it has gathered. Both slices are reused.
	batch   []cluster.Envelope
	next    int
	waiters []flushWaiter

	// scratch holds one encoded control record at a time; both backends copy
	// the bytes out before the append is over, so it is reusable.
	scratch []byte
	// The append in flight: its LSN and the LSN just past it.
	start, end audit.LSN

	ck       *ckDelta //simlint:boxowner -- the writer owns its checkpoint box until the backup acknowledges it
	fstart   sim.Time // when the flush began
	rest     []byte   // a wrapping flush's second piece, still to write
	flushErr error    // the boxcar's flush outcome, every waiter's reply
}

// Handle implements sim.Server: open the envelope that woke the writer and,
// with group commit, drain the inbox behind it into the boxcar; then serve
// its first request. A request is its sender's box, recycled only after the
// reply, so reading it here — and writing the response into it — is safe.
//
//simlint:hotpath
func (w *writer) Handle(_ *sim.Proc, v interface{}) (done bool) {
	w.batch = append(w.batch[:0], w.p.Open(v))
	if !w.a.cfg.NoGroupCommit {
		for {
			more, ok := w.p.TryRecv()
			if !ok {
				break
			}
			w.batch = append(w.batch, more)
		}
	}
	w.waiters = w.waiters[:0]
	w.next, w.flushErr = 0, nil
	return w.serveNext()
}

// Step implements sim.Stepper: one wake-up of the leg in flight.
//
//simlint:hotpath
func (w *writer) Step(sp *sim.Proc) (done bool) {
	switch w.phase {
	case wrAppendPM:
		if !w.pmw.Step(sp) {
			return false
		}
	case wrFlushWrite:
		if !w.dw.Step(sp) {
			return false
		}
	default:
		if !w.leg.Step(sp) {
			return false
		}
	}
	return w.after()
}

// then notes ph as the leg just armed and, when it is already over, takes
// its outcome at once.
//
//simlint:hotpath
func (w *writer) then(ph wrPhase, done bool) bool {
	w.phase = ph
	return done && w.after()
}

// after takes the outcome of the leg the phase names and goes on.
//
//simlint:hotpath
func (w *writer) after() (done bool) {
	st := w.st
	switch w.phase {
	case wrRequestCPU:
		return w.request()
	case wrAppendPM:
		if err := w.pmw.Err(); err != nil {
			return w.appended(err)
		}
		st.nextLSN = w.end
		st.durableLSN = w.end
		w.a.stats.PMWrites++
		w.a.stats.PMBytes += int64(w.end - w.start)
		// Only tiny control state needs backup protection now: the log
		// itself is already persistent.
		return w.checkpoint(wrAppendCkpt, 0, false)
	case wrAppendCkpt:
		w.checkpointed()
		return w.appended(nil)
	case wrFlushCPU:
		vol := w.a.cfg.Volume
		volOff := int64(st.bufStart) % vol.Capacity()
		data := st.buf
		if first := vol.Capacity() - volOff; int64(len(data)) > first {
			// Wrap the volume like a circular trail (auxiliary audit volumes
			// are recycled after control points).
			data, w.rest = data[:first], data[first:]
		}
		return w.then(wrFlushWrite, w.dw.Write(vol, w.p.Sim(), volOff, data))
	case wrFlushWrite:
		if err := w.dw.Err(); err != nil {
			w.rest = nil
			return w.flushed(err)
		}
		if rest := w.rest; len(rest) > 0 {
			w.rest = nil
			return w.then(wrFlushWrite, w.dw.Write(w.a.cfg.Volume, w.p.Sim(), 0, rest))
		}
		n := len(st.buf)
		w.a.stats.Flushes++
		w.a.stats.FlushBytes += int64(n)
		w.a.mFlush.Record(w.p.Now() - w.fstart)
		st.durableLSN = st.bufStart + audit.LSN(n)
		st.buf = st.buf[:0]
		st.bufStart = st.durableLSN
		return w.flushed(nil)
	case wrResetCkpt:
		w.checkpointed()
		return w.reply()
	}
	panic("adp: writer step with no leg pending")
}

// serveNext starts the boxcar's next request with its CPU cost, or, once
// every request is served, makes the boxcar durable.
//
//simlint:hotpath
func (w *writer) serveNext() (done bool) {
	if w.next < len(w.batch) {
		return w.then(wrRequestCPU, w.leg.Compute(w.p, requestCPU))
	}
	if len(w.waiters) == 0 {
		return w.finish() // appends checkpointed individually before their acks
	}
	// Make the trail durable through the highest requested LSN. In PM mode
	// appends already were; in Disk mode this is the group-commit flush:
	// every waiter in this boxcar shares one device write.
	if w.a.cfg.Mode == PM {
		return w.reply()
	}
	if len(w.st.buf) == 0 {
		return w.flushed(nil)
	}
	w.fstart = w.p.Now()
	return w.then(wrFlushCPU, w.leg.Compute(w.p, flushCPU))
}

// request serves the request in flight once its CPU cost is paid.
//
//simlint:hotpath
func (w *writer) request() (done bool) {
	ev := w.batch[w.next]
	switch req := ev.Payload.(type) {
	case *AppendReq:
		return w.append(req.Data)
	case *CommitReq:
		rec := audit.Record{Type: audit.RecCommit, Txn: req.Txn}
		if len(req.Outcome) > 0 {
			rec.Type, rec.Body = audit.RecOutcome, req.Outcome
		}
		w.scratch = audit.AppendRecord(w.scratch[:0], &rec)
		return w.append(w.scratch)
	case *AbortReq:
		rec := audit.Record{Type: audit.RecAbort, Txn: req.Txn}
		w.scratch = audit.AppendRecord(w.scratch[:0], &rec)
		return w.append(w.scratch)
	case *FlushReq:
		w.a.m.OnWaiterIn()
		w.waiters = append(w.waiters, flushWaiter{upTo: req.UpTo, ev: ev, enq: w.p.Now()})
	case *StateReq:
		req.Resp = w.a.stats
		req.Resp.NextLSN = w.st.nextLSN
		req.Resp.DurableLSN = w.st.durableLSN
		ev.Reply(req)
	default:
		// Every sender is in this repository: a programming error.
		//simlint:allow hotalloc -- a request no sender builds, fatal
		panic(fmt.Sprintf("adp: unknown request %T", req))
	}
	w.next++
	return w.serveNext()
}

// append adds encoded records to the trail. Disk mode buffers them and
// checkpoints the delta to the backup, so that the unflushed buffer survives
// an ADP process failure; PM mode writes through to the mirrored region,
// where the log wraps, and checkpoints the counters.
//
//simlint:hotpath
func (w *writer) append(data []byte) (done bool) {
	st := w.st
	w.start = st.nextLSN
	w.end = w.start + audit.LSN(len(data))
	if w.a.cfg.Mode == PM {
		return w.then(wrAppendPM, w.pmw.WriteRing(w.region, w.p, int64(w.start), data))
	}
	if len(st.buf) == 0 {
		st.bufStart = w.start
	}
	st.buf = append(st.buf, data...)
	st.nextLSN = w.end
	return w.checkpoint(wrAppendCkpt, len(data), false)
}

// appended takes the append's outcome for the request in flight: an append
// or an abort is answered, a commit joins the boxcar's waiters.
//
//simlint:hotpath
func (w *writer) appended(err error) (done bool) {
	a, ev := w.a, w.batch[w.next]
	switch req := ev.Payload.(type) {
	case *AppendReq:
		req.Resp = AppendResp{End: w.end, Err: err}
		if err == nil {
			a.stats.Appends++
			a.stats.AppendBytes += int64(len(req.Data))
		} else {
			req.Resp.End = w.start
		}
		ev.Reply(req)
	case *CommitReq:
		if err != nil {
			req.Resp = CommitResp{Err: err}
			ev.Reply(req)
			break
		}
		a.stats.Commits++
		a.m.OnWaiterIn()
		w.waiters = append(w.waiters, flushWaiter{upTo: w.end, ev: ev, enq: w.p.Now()})
	case *AbortReq:
		if err == nil {
			a.stats.Aborts++
		}
		ev.Reply(req)
	}
	w.next++
	return w.serveNext()
}

// flushed takes the flush's outcome and checkpoints it: a reset of the
// backup's buffer after a good flush, none after a failed one, which left
// the buffer in place.
//
//simlint:hotpath
func (w *writer) flushed(err error) (done bool) {
	w.flushErr = err
	return w.checkpoint(wrResetCkpt, 0, err == nil)
}

// reply answers every waiter of the boxcar with the flush's outcome. Every
// reply — success or error — takes its waiter out of the boxcar, keeping
// In == Flushed + Pending balanced; only waiters lost to a killed primary
// stay Pending.
//
//simlint:hotpath
func (w *writer) reply() (done bool) {
	a, err := w.a, w.flushErr
	if len(w.waiters) > 1 {
		a.stats.GroupedCommits += int64(len(w.waiters))
	}
	durableAt := w.p.Now()
	for _, fw := range w.waiters {
		a.m.OnWaiterFlushed(durableAt - fw.enq)
		switch req := fw.ev.Payload.(type) {
		case *CommitReq:
			req.Resp = CommitResp{Err: err}
			if err == nil {
				req.Resp.LSN = fw.upTo
			}
		case *FlushReq:
			req.Resp = FlushResp{Err: err}
			if err == nil {
				req.Resp.Durable = w.st.durableLSN
			}
		}
		fw.ev.Reply(fw.ev.Payload)
	}
	return w.finish()
}

// finish ends the boxcar; every reply has gone.
//
//simlint:hotpath
func (w *writer) finish() bool {
	w.phase = wrIdle
	clear(w.batch)
	clear(w.waiters)
	return true
}

// checkpoint protects state at the backup, the leg named ph. deltaBytes
// sizes the wire payload: in Disk mode the appended audit must cross to the
// backup; in PM mode only counters do. The payload is a delta (the last
// deltaBytes of the buffer plus control fields), not a state clone; the
// backup's absorbDelta reconstructs the full image.
//
//simlint:hotpath
func (w *writer) checkpoint(ph wrPhase, deltaBytes int, reset bool) (done bool) {
	st := w.st
	d := w.a.newDelta()
	if deltaBytes > 0 {
		d.data = st.buf[len(st.buf)-deltaBytes:]
	}
	d.reset = reset
	d.nextLSN = st.nextLSN
	d.durableLSN = st.durableLSN
	d.bufStart = st.bufStart
	w.ck = d
	return w.then(ph, w.leg.Checkpoint(w.a.pair, w.p, 48+deltaBytes, d))
}

// checkpointed takes a checkpoint's outcome. Absorbed (or folded into the
// shadow state) synchronously, its box is reusable at once; on error the
// delta may still sit undelivered in the backup's inbox, so the box cannot
// be recycled.
//
//simlint:hotpath
func (w *writer) checkpointed() {
	if w.leg.Err() == nil {
		w.a.freeDelta(w.ck)
	}
	w.ck = nil
}

// abort is the kill guard: it releases the leg in flight.
func (w *writer) abort() {
	w.leg.Abort()
	w.pmw.Abort()
	w.dw.Abort()
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
