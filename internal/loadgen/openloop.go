// Open-loop, shard-aware saturation harness.
//
// A closed-loop driver issues a new transaction only when the previous
// one completes, so its offered load can never exceed the store's
// capacity and the latency it reports hides queueing entirely. The
// open-loop harness decouples the two: a Poisson arrival process
// generates transaction arrivals on a virtual clock for an unbounded
// population of logical clients, each arrival is routed by key skew to
// its DP2 partition's admission queue, and a bounded pool of worker processes drains the queues. Latency is
// measured from *arrival* (not dispatch), so queue wait is part of the
// sojourn and the throughput-vs-p99 curve shows the saturation knee.
package loadgen

import (
	"fmt"
	"math/rand"

	"persistmem/internal/cluster"
	"persistmem/internal/hist"
	"persistmem/internal/metrics"
	"persistmem/internal/ods"
	"persistmem/internal/sim"
)

// The open loop's fixed shape: every run drives this worker pool,
// transaction mix and key skew; an OpenConfig sets the rest.
const (
	// workersPerShard bounds the real executor processes per shard (the
	// cluster.Process pool that actually drives sessions).
	workersPerShard = 4
	// opsPerTxn is the number of data operations per transaction.
	opsPerTxn = 8
	// readFraction is the probability an operation is a browse read of a
	// committed key on the same shard rather than an insert.
	readFraction = 0.2
	// valueBytes sizes inserted values.
	valueBytes = 1024
	// keyspace, zipfS and zipfV shape the key skew: logical keys are
	// Zipf(s, v)-distributed over [0, keyspace), so low keys — and the
	// shards they route to — are hot.
	keyspace = 1 << 20
	zipfS    = 1.2
	zipfV    = 1
)

// OpenConfig shapes one open-loop run.
type OpenConfig struct {
	// File names the key-sequenced file driven; empty means the store's
	// first file. The file's partition count is the shard count: every
	// arrival is routed to a shard via ods.Store.PartitionOf.
	File string
	// Rate is the offered load in transactions per virtual second.
	Rate float64
	// Window is the arrival window in virtual time: arrivals are
	// generated for exactly this long, then the workers drain what is
	// queued. Offered load is Arrivals/Window.
	Window sim.Time
	// MaxQueue bounds each shard's admission queue; an arrival finding
	// MaxQueue waiting is dropped (counted, never executed). 0 means
	// unbounded.
	MaxQueue int
	// CrossShardPct in [0,100] is the percentage of write transactions
	// that spread their inserts round-robin across every shard and
	// commit under the TMF's cross-shard two-phase outcome-record
	// protocol. Zero (the default) draws no extra randomness, so the
	// run's schedule is byte-identical to one built before the knob
	// existed.
	CrossShardPct float64
}

// DefaultOpenConfig returns a moderate Poisson configuration.
func DefaultOpenConfig() OpenConfig {
	return OpenConfig{Rate: 1000, Window: sim.Second}
}

// ShardStats is the per-DP2-partition ledger of an open-loop run. Shard
// membership is exactly ods.Store.PartitionOf(file, key), so a hot key
// range shows up as one shard's Arrivals, queue depth and p99 running
// away from the others'. The txn-outcome identity holds per shard:
// Txns == Commits + Aborts + Errors, and Arrivals == Txns + Drops +
// still-queued (zero once the run drains).
type ShardStats struct {
	Shard    int
	Arrivals int64
	Drops    int64
	Txns     int64
	Commits  int64
	Aborts   int64
	Errors   int64
	// MaxDepth is the largest admission-queue depth an arrival observed.
	MaxDepth int
	// Sojourn is arrival→commit latency (queue wait included).
	Sojourn hist.H
}

// OpenResult aggregates an open-loop run.
//
// Counter taxonomy (disjoint by construction):
//
//	Arrivals == Txns + Drops
//	Txns     == Commits + Aborts + Errors
//
// Commits are transactions whose Commit returned nil; Aborts ended in a
// known not-committed outcome (an insert failure followed by a client
// abort, or a Commit that returned an error); Errors never became a
// transaction at all (Begin failed). Reads and ReadErrors count browse
// read operations — an op-level ledger, deliberately outside the
// txn-level identity.
type OpenResult struct {
	// Window is the configured arrival window; Elapsed stretches from
	// the run start to the last worker's last completion (the drain of
	// the backlog, which past saturation exceeds Window).
	Window  sim.Time
	Elapsed sim.Time

	Arrivals int64
	Drops    int64
	Txns     int64
	Commits  int64
	Aborts   int64
	Errors   int64

	Inserts    int64
	Reads      int64
	ReadErrors int64
	// CrossCommits counts committed transactions that ran under the
	// cross-shard two-phase protocol (a subset of Commits).
	CrossCommits int64

	// Sojourn is arrival→commit (queueing included) — the open-loop
	// latency. Service is dispatch→commit (queueing excluded). QueueWait
	// is arrival→dispatch for every executed transaction. Sojourn ≈
	// QueueWait + Service, sampled at commit.
	Sojourn     hist.H
	Service     hist.H
	QueueWait   hist.H
	ReadLatency hist.H
	// Depth samples the target shard's admission-queue depth at every
	// arrival (an integer histogram in disguise).
	Depth hist.H

	Shards []ShardStats
	Events uint64
}

// Offered returns the measured offered load in transactions per virtual
// second — generated arrivals (dropped ones included) over the arrival
// window.
func (r *OpenResult) Offered() float64 {
	if r.Window == 0 {
		return 0
	}
	return float64(r.Arrivals) / r.Window.Seconds()
}

// Delivered returns the goodput in committed transactions per virtual
// second of total elapsed (window + drain) time. Past saturation
// Delivered plateaus at capacity while Offered keeps climbing.
func (r *OpenResult) Delivered() float64 {
	if r.Elapsed == 0 {
		return 0
	}
	return float64(r.Commits) / r.Elapsed.Seconds()
}

// String renders the run summary.
func (r *OpenResult) String() string {
	return fmt.Sprintf(
		"window %v (elapsed %v): offered %.1f/s, delivered %.1f/s; %d arrivals, %d drops, %d txns = %d commits + %d aborts + %d errors\n  sojourn: %s\n  service: %s\n  queue:   %s",
		r.Window, r.Elapsed, r.Offered(), r.Delivered(),
		r.Arrivals, r.Drops, r.Txns, r.Commits, r.Aborts, r.Errors,
		r.Sojourn.Summary(), r.Service.Summary(), r.QueueWait.Summary())
}

// openCrossBase offsets the per-home-shard cross-shard key sequence
// blocks far above any key the local nextSeq sequences can reach at
// simulation scale.
const openCrossBase = uint64(1) << 40

// arrival is one generated transaction request, carried from the
// generator through a shard's admission queue to a worker. Records are
// recycled through OpenPending.free once the worker retires them.
type arrival struct {
	at  sim.Time
	key uint64
}

// keyBlock is how many keys a block of a working set holds: 4096 keys are
// 32 KiB, the largest small size class, and pointer-free.
const keyBlock = 4096

// keySet is a shard's read working set: committed keys in commit order,
// read by index. It grows a fixed block at a time, so an add never copies
// the keys already held.
type keySet struct {
	blocks []*[keyBlock]uint64
	n      int
}

//simlint:hotpath
func (s *keySet) len() int { return s.n }

//simlint:hotpath
func (s *keySet) at(i int) uint64 { return s.blocks[i/keyBlock][i%keyBlock] }

//simlint:hotpath
func (s *keySet) add(k uint64) {
	if s.n == len(s.blocks)*keyBlock {
		s.blocks = append(s.blocks, new([keyBlock]uint64))
	}
	s.blocks[s.n/keyBlock][s.n%keyBlock] = k
	s.n++
}

// openShard is one partition's queue and ledger.
type openShard struct {
	q       *sim.Chan
	stats   ShardStats
	written keySet // committed keys, the shard's read working set
	nextSeq uint64 // per-shard insert-key sequence
	// crossSeq numbers this home shard's cross-shard inserts. Each home
	// shard owns a disjoint block of the sequence space (see runTxn), so
	// cross-shard keys synthesized by different homes never collide with
	// each other or with any shard's local nextSeq keys.
	crossSeq uint64
}

// OpenPending is an open-loop run whose processes have been spawned but
// whose engine has not been driven yet — the spawn/collect split that
// lets a caller time or interleave the drain itself.
type OpenPending struct {
	s      *ods.Store
	cfg    OpenConfig
	res    OpenResult
	shards []openShard
	doneAt []sim.Time
	t0     sim.Time
	ld     *metrics.LoadSpans

	free []*arrival //simlint:box -- arrival-record pool (generator gets, workers put)
}

//simlint:hotpath
func (op *OpenPending) newArrival() *arrival {
	if n := len(op.free); n > 0 {
		a := op.free[n-1]
		op.free = op.free[:n-1]
		return a
	}
	return &arrival{}
}

//simlint:hotpath
func (op *OpenPending) putArrival(a *arrival) {
	*a = arrival{}
	op.free = append(op.free, a)
}

// withDefaults fills a zero rate or window from DefaultOpenConfig and
// resolves the driven file.
func (cfg OpenConfig) withDefaults(s *ods.Store) OpenConfig {
	def := DefaultOpenConfig()
	if cfg.File == "" {
		cfg.File = s.Opts.Files[0].Name
	}
	if cfg.Rate <= 0 {
		cfg.Rate = def.Rate
	}
	if cfg.Window <= 0 {
		cfg.Window = def.Window
	}
	return cfg
}

// StartOpen spawns an open-loop run's generator and worker processes on
// s without running the engine. Drive the engine to completion
// (s.Eng.Run), then call Collect.
func StartOpen(s *ods.Store, cfg OpenConfig) *OpenPending {
	cfg = cfg.withDefaults(s)
	nShards := s.Partitions(cfg.File)
	if nShards == 0 {
		panic(fmt.Sprintf("loadgen: unknown file %q", cfg.File))
	}
	op := &OpenPending{
		s:      s,
		cfg:    cfg,
		shards: make([]openShard, nShards),
		doneAt: make([]sim.Time, nShards*workersPerShard),
	}
	if m := s.Opts.Metrics; m != nil {
		op.ld = m.Load
	}
	op.res.Window = cfg.Window
	op.res.Shards = make([]ShardStats, nShards)
	for i := range op.shards {
		op.shards[i].q = s.Eng.NewChan(fmt.Sprintf("loadq-%d", i))
		op.shards[i].stats.Shard = i
	}

	// Workers: a bounded executor pool, workersPerShard per shard,
	// spread round-robin over the CPUs.
	widx := 0
	for sh := 0; sh < nShards; sh++ {
		for w := 0; w < workersPerShard; w++ {
			sh, w, widx := sh, w, widx
			cpu := widx % s.Opts.CPUs
			s.Cl.CPU(cpu).Spawn(fmt.Sprintf("loadw-%d-%d", sh, w), func(p *cluster.Process) {
				op.worker(p, sh, w)
				op.doneAt[widx] = p.Now()
			})
			widx++
		}
	}

	// The generator: one process modeling the whole client population's
	// arrival stream.
	s.Cl.CPU(0).Spawn("loadgen-arrivals", func(p *cluster.Process) {
		op.generate(p)
	})
	return op
}

// generate runs the arrival loop: wait one inter-arrival gap, draw a
// skewed key, route to its shard, admit or drop.
func (op *OpenPending) generate(p *cluster.Process) {
	s, cfg := op.s, op.cfg
	op.t0 = p.Now()
	horizon := op.t0 + cfg.Window
	proc := NewPoisson(s.Eng.DeriveRand("loadgen-arrivals"), cfg.Rate)
	keys := NewZipfKeys(s.Eng.DeriveRand("loadgen-keys"), zipfS, zipfV, keyspace)

	for {
		gap := proc.Next()
		if p.Now()+gap >= horizon {
			break
		}
		p.Wait(gap)
		key := keys.Next()
		st := &op.shards[s.PartitionOf(cfg.File, key)]
		st.stats.Arrivals++
		op.res.Arrivals++
		op.ld.OnArrival()
		depth := st.q.Len()
		op.res.Depth.Record(sim.Time(depth))
		if depth > st.stats.MaxDepth {
			st.stats.MaxDepth = depth
		}
		if cfg.MaxQueue > 0 && depth >= cfg.MaxQueue {
			st.stats.Drops++
			op.res.Drops++
			op.ld.OnDrop()
			continue
		}
		a := op.newArrival()
		a.at, a.key = p.Now(), key
		st.q.Send(p.Sim(), a)
	}
	if horizon > p.Now() {
		p.Wait(horizon - p.Now())
	}
	// Window over: release the workers. Sentinels are FIFO-ordered
	// behind every admitted arrival, so the backlog fully drains.
	for i := range op.shards {
		for w := 0; w < workersPerShard; w++ {
			op.shards[i].q.Send(p.Sim(), (*arrival)(nil))
		}
	}
}

// worker drains one shard's admission queue until the end-of-window
// sentinel arrives.
func (op *OpenPending) worker(p *cluster.Process, shard, slot int) {
	s := op.s
	st := &op.shards[shard]
	se := s.NewSession(p)
	rng := s.Eng.DeriveRand(fmt.Sprintf("loadgen-worker-%d-%d", shard, slot))
	body := make([]byte, valueBytes)
	staged := make([]uint64, 0, opsPerTxn)
	for {
		a, _ := st.q.Recv(p.Sim()).(*arrival)
		if a == nil {
			return
		}
		op.ld.OnStart(p.Now() - a.at)
		op.runTxn(p, se, st, shard, a, rng, body, staged[:0])
		op.putArrival(a)
	}
}

// runTxn executes one arrival's transaction and files its outcome into
// exactly one of the commit/abort/error buckets, globally and on its
// shard.
//
//simlint:hotpath
func (op *OpenPending) runTxn(p *cluster.Process, se *ods.Session, st *openShard,
	shard int, a *arrival, rng *rand.Rand, body []byte, staged []uint64) {
	cfg, res := op.cfg, &op.res
	nShards := uint64(len(op.shards))
	res.Txns++
	st.stats.Txns++
	res.QueueWait.Record(p.Now() - a.at)
	txn, err := se.Begin()
	if err != nil {
		res.Errors++
		st.stats.Errors++
		return
	}
	dispatched := p.Now()
	// The cross-shard draw happens only when the knob is set, so a
	// CrossShardPct of zero consumes no randomness and the schedule is
	// byte-identical to a run without the knob.
	cross := false
	if cfg.CrossShardPct > 0 && nShards > 1 {
		cross = rng.Float64()*100 < cfg.CrossShardPct
	}
	se.SetTwoPhase(cross)
	failed := false
	for i := 0; i < opsPerTxn; i++ {
		if st.written.len() > 0 && rng.Float64() < readFraction {
			key := st.written.at(rng.Intn(st.written.len()))
			rstart := p.Now()
			if _, err := se.ReadBrowse(cfg.File, key); err != nil {
				res.ReadErrors++
			} else {
				res.Reads++
				res.ReadLatency.Record(p.Now() - rstart)
			}
			continue
		}
		// Synthesize an insert key unique to this shard that PartitionOf
		// routes back to it: stride by the shard count. A cross-shard
		// transaction instead rotates its inserts round-robin over every
		// shard, drawing keys from this home shard's private block of the
		// cross sequence space so no two homes ever collide.
		var key uint64
		if target := (shard + len(staged)) % len(op.shards); cross && target != shard {
			key = (openCrossBase*(uint64(shard)+1)+st.crossSeq)*nShards + uint64(target)
			st.crossSeq++
		} else {
			key = st.nextSeq*nShards + uint64(shard)
			st.nextSeq++
		}
		if err := txn.InsertAsync(cfg.File, key, body); err != nil {
			failed = true
			break
		}
		staged = append(staged, key)
	}
	if failed {
		txn.Abort()
		res.Aborts++
		st.stats.Aborts++
		return
	}
	if err := txn.Commit(); err != nil {
		res.Aborts++
		st.stats.Aborts++
		return
	}
	// Only now do the inserted keys join the shard's read working set —
	// a key staged by an aborted transaction must never be browsed —
	// and only home-shard keys: the working set stays shard-local.
	if cross {
		res.CrossCommits++
	}
	for _, k := range staged {
		if !cross || k%nShards == uint64(shard) {
			st.written.add(k)
		}
	}
	res.Commits++
	st.stats.Commits++
	res.Inserts += int64(len(staged))
	sj := p.Now() - a.at
	res.Sojourn.Record(sj)
	st.stats.Sojourn.Record(sj)
	res.Service.Record(p.Now() - dispatched)
}

// Collect assembles the result after the engine has been drained.
func (op *OpenPending) Collect() OpenResult {
	res := op.res
	for _, t := range op.doneAt {
		if t-op.t0 > res.Elapsed {
			res.Elapsed = t - op.t0
		}
	}
	for i := range op.shards {
		res.Shards[i] = op.shards[i].stats
	}
	res.Events = op.s.Eng.EventsExecuted()
	return res
}

// RunOpen drives an open-loop run against an idle store to completion
// and returns aggregated results. Deterministic for a given store seed
// and config.
func RunOpen(s *ods.Store, cfg OpenConfig) OpenResult {
	pend := StartOpen(s, cfg)
	s.Eng.Run()
	return pend.Collect()
}
