package loadgen

import (
	"reflect"
	"testing"

	"persistmem/internal/cluster"
	"persistmem/internal/faultinject"
	"persistmem/internal/metrics"
	"persistmem/internal/ods"
	"persistmem/internal/sim"
)

// shardedStore builds a store with one file split over nShards DP2
// partitions.
func shardedStore(d ods.Durability, seed int64, nShards int) *ods.Store {
	opts := ods.DefaultOptions()
	opts.Seed = seed
	opts.Durability = d
	opts.Files = []ods.FileSpec{{Name: "TRADES", Partitions: nShards}}
	opts.DataVolumes = 4
	opts.PMRegionBytes = 8 << 20
	return ods.Build(opts)
}

// checkIdentities asserts the documented counter taxonomy, globally and
// per shard, and that the shard ledgers sum to the global ones.
func checkIdentities(t *testing.T, r *OpenResult) {
	t.Helper()
	if r.Arrivals != r.Txns+r.Drops {
		t.Errorf("Arrivals %d != Txns %d + Drops %d", r.Arrivals, r.Txns, r.Drops)
	}
	if r.Txns != r.Commits+r.Aborts+r.Errors {
		t.Errorf("Txns %d != Commits %d + Aborts %d + Errors %d", r.Txns, r.Commits, r.Aborts, r.Errors)
	}
	var sum ShardStats
	for _, sh := range r.Shards {
		if sh.Txns != sh.Commits+sh.Aborts+sh.Errors {
			t.Errorf("shard %d: Txns %d != Commits %d + Aborts %d + Errors %d",
				sh.Shard, sh.Txns, sh.Commits, sh.Aborts, sh.Errors)
		}
		if sh.Arrivals != sh.Txns+sh.Drops {
			t.Errorf("shard %d: Arrivals %d != Txns %d + Drops %d", sh.Shard, sh.Arrivals, sh.Txns, sh.Drops)
		}
		sum.Arrivals += sh.Arrivals
		sum.Drops += sh.Drops
		sum.Txns += sh.Txns
		sum.Commits += sh.Commits
	}
	if sum.Arrivals != r.Arrivals || sum.Drops != r.Drops || sum.Txns != r.Txns || sum.Commits != r.Commits {
		t.Errorf("shard sums %+v do not match global (%d arrivals, %d drops, %d txns, %d commits)",
			sum, r.Arrivals, r.Drops, r.Txns, r.Commits)
	}
}

func TestOpenLoopProducesWork(t *testing.T) {
	s := shardedStore(ods.PMDurability, 1, 4)
	cfg := DefaultOpenConfig()
	cfg.Rate = 500
	cfg.Window = sim.Second
	r := RunOpen(s, cfg)
	if r.Commits == 0 || r.Inserts == 0 {
		t.Fatalf("no work done:\n%s", r.String())
	}
	if r.Errors != 0 || r.Aborts != 0 {
		t.Errorf("faultless run had %d errors, %d aborts", r.Errors, r.Aborts)
	}
	if r.Reads == 0 {
		t.Error("no reads at the default 20% read fraction")
	}
	if r.ReadErrors != 0 {
		t.Errorf("%d read errors browsing committed keys", r.ReadErrors)
	}
	if r.ReadLatency.Count() != r.Reads {
		t.Errorf("read samples %d != reads %d", r.ReadLatency.Count(), r.Reads)
	}
	// Browse reads are fast (no durability on the path).
	if r.ReadLatency.Mean() > r.Service.Mean() {
		t.Errorf("read mean %v above service mean %v", r.ReadLatency.Mean(), r.Service.Mean())
	}
	checkIdentities(t, &r)
	if len(r.Shards) != 4 {
		t.Fatalf("got %d shard ledgers, want 4", len(r.Shards))
	}
	// Sojourn includes queue wait; it is sampled once per commit.
	if r.Sojourn.Count() != r.Commits {
		t.Errorf("sojourn samples %d != commits %d", r.Sojourn.Count(), r.Commits)
	}
	if r.QueueWait.Count() != r.Txns {
		t.Errorf("queue-wait samples %d != txns %d", r.QueueWait.Count(), r.Txns)
	}
	if len(r.String()) == 0 {
		t.Error("empty String()")
	}
	s.Eng.Shutdown()
}

// TestOpenLoopOfferedLoadTracksRate: the end-to-end measured offered
// load stays within sampling error of the configured λ (the tight 1%
// bound is pinned on the generator itself in arrival_test.go; a 2s
// window holds ~4000 arrivals, so 5% here is already ~3σ).
func TestOpenLoopOfferedLoadTracksRate(t *testing.T) {
	s := shardedStore(ods.PMDurability, 3, 4)
	cfg := DefaultOpenConfig()
	cfg.Rate = 2000
	cfg.Window = 2 * sim.Second
	r := RunOpen(s, cfg)
	if got := r.Offered(); got < cfg.Rate*0.95 || got > cfg.Rate*1.05 {
		t.Errorf("offered %.1f/s, want within 5%% of %.0f/s", got, cfg.Rate)
	}
	s.Eng.Shutdown()
}

func TestOpenLoopDeterministic(t *testing.T) {
	run := func() OpenResult {
		s := shardedStore(ods.PMDurability, 11, 4)
		cfg := DefaultOpenConfig()
		cfg.Rate = 800
		cfg.Window = 500 * sim.Millisecond
		r := RunOpen(s, cfg)
		s.Eng.Shutdown()
		return r
	}
	a, b := run(), run()
	if a.Arrivals != b.Arrivals || a.Commits != b.Commits || a.Elapsed != b.Elapsed ||
		a.Events != b.Events || a.Inserts != b.Inserts || a.Reads != b.Reads {
		t.Errorf("nondeterministic:\n%s\nvs\n%s", a.String(), b.String())
	}
	if a.Sojourn.Mean() != b.Sojourn.Mean() || a.Sojourn.Percentile(99) != b.Sojourn.Percentile(99) {
		t.Errorf("sojourn differs: %v vs %v", a.Sojourn.Mean(), b.Sojourn.Mean())
	}
	for i := range a.Shards {
		if !reflect.DeepEqual(a.Shards[i], b.Shards[i]) { // every bucket of the shard's sojourn histogram
			t.Errorf("shard %d differs: %+v vs %+v", i, a.Shards[i], b.Shards[i])
		}
	}
}

// TestAbortedKeysNeverBrowsed pins the working-set rule: a mid-run fault
// makes some commits fail, and the keys those transactions staged must
// never enter a shard's read working set. Browse reads inside the
// takeover window fail whatever key they pick, so the rule is checked
// after the run: every key in every working set reads back.
func TestAbortedKeysNeverBrowsed(t *testing.T) {
	s := shardedStore(ods.DiskDurability, 23, 4)
	// Kill the primary of one DP2 partition mid-run: transactions that
	// touch it during the takeover window fail. Most failures are commit
	// timeouts whose transaction did commit; the offered load is past the
	// disk store's capacity so that a backlog is in flight and some inserts
	// time out too, which really aborts their transactions.
	plan := faultinject.Plan{
		{Kind: faultinject.ProcessKill, Service: s.DP2Name("TRADES", 0), When: faultinject.Trigger{At: 100 * sim.Millisecond}},
	}
	inj := faultinject.Arm(s, plan)
	cfg := DefaultOpenConfig()
	cfg.Rate = 1500
	cfg.Window = sim.Second
	pend := StartOpen(s, cfg)
	s.Eng.Run()
	r := pend.Collect()
	if len(inj.Firings()) != 1 {
		t.Fatalf("fault did not fire: %v", inj.Firings())
	}
	if r.Aborts == 0 {
		t.Fatal("no aborts despite a DP2 primary kill mid-run")
	}
	if r.Reads == 0 {
		t.Errorf("no reads at a %v read fraction", readFraction)
	}
	checkIdentities(t, &r)

	var keys, missing int
	s.Cl.CPU(1).Spawn("check-working-sets", func(p *cluster.Process) {
		se := s.NewSession(p)
		for _, sh := range pend.shards {
			for i := 0; i < sh.written.len(); i++ {
				k := sh.written.at(i)
				keys++
				if _, err := se.ReadBrowse("TRADES", k); err != nil {
					missing++
				}
			}
		}
	})
	s.Eng.Run()
	if keys == 0 || missing != 0 {
		t.Errorf("%d of %d working-set keys do not read back — keys from failed transactions leaked into the working set", missing, keys)
	}
	s.Eng.Shutdown()
}

// TestWorkingSetHoldsCommittedHomeKeys: with no aborts, a shard's working
// set holds each home-shard key it synthesized exactly once — across keySet
// block boundaries, and including the home-shard keys of two-phase commits
// (the keys those route to other shards stay out). A shard's workers commit
// concurrently, so the keys join in commit order, not in sequence order.
func TestWorkingSetHoldsCommittedHomeKeys(t *testing.T) {
	const nShards = 4
	s := shardedStore(ods.PMDurability, 3, nShards)
	cfg := DefaultOpenConfig()
	cfg.Rate = 2000
	cfg.Window = 2 * sim.Second
	cfg.CrossShardPct = 50
	pend := StartOpen(s, cfg)
	s.Eng.Run()
	r := pend.Collect()
	s.Eng.Shutdown()
	if r.Aborts != 0 || r.Errors != 0 || r.CrossCommits == 0 {
		t.Fatalf("%d aborts, %d errors, %d two-phase commits; the test wants 0, 0 and some", r.Aborts, r.Errors, r.CrossCommits)
	}
	longest := 0
	for shard, sh := range pend.shards {
		if n := sh.written.len(); uint64(n) != sh.nextSeq {
			t.Errorf("shard %d: %d keys in the working set, %d home-shard keys committed", shard, n, sh.nextSeq)
		}
		seen := make([]bool, sh.nextSeq)
		for i := 0; i < sh.written.len(); i++ {
			k := sh.written.at(i)
			seq := k / nShards
			if k%nShards != uint64(shard) || seq >= sh.nextSeq || seen[seq] {
				t.Fatalf("shard %d: key %d of the working set is %d, not a fresh home-shard key below sequence %d", shard, i, k, sh.nextSeq)
			}
			seen[seq] = true
		}
		longest = max(longest, sh.written.len())
	}
	if longest <= keyBlock {
		t.Fatalf("longest working set is %d keys, the test wants more than one %d-key block", longest, keyBlock)
	}
}

// TestOpenLoopHotShard: Zipf skew routes low keys — and so low-numbered
// shards (PartitionOf is key % partitions, and key 0 is hottest) — far
// more arrivals than the rest.
func TestOpenLoopHotShard(t *testing.T) {
	s := shardedStore(ods.PMDurability, 5, 8)
	cfg := DefaultOpenConfig()
	cfg.Rate = 1000
	cfg.Window = sim.Second
	r := RunOpen(s, cfg)
	hot, cold := r.Shards[0].Arrivals, r.Shards[len(r.Shards)-1].Arrivals
	if hot < 3*cold {
		t.Errorf("shard 0 got %d arrivals vs shard %d's %d — skew not visible per shard",
			hot, len(r.Shards)-1, cold)
	}
	checkIdentities(t, &r)
	s.Eng.Shutdown()
}

// TestOpenLoopOverload drives far past the knee: offered load is
// decoupled from completions, the backlog drains after the window, and
// sojourn p99 (queueing included) dwarfs service p99.
func TestOpenLoopOverload(t *testing.T) {
	s := shardedStore(ods.PMDurability, 7, 4)
	cfg := DefaultOpenConfig()
	cfg.Rate = 6000 // ~3x the measured PM capacity of this store
	cfg.Window = sim.Second
	r := RunOpen(s, cfg)
	if r.Elapsed <= r.Window {
		t.Errorf("elapsed %v did not exceed window %v under 3x overload", r.Elapsed, r.Window)
	}
	if off, del := r.Offered(), r.Delivered(); del > off/2 {
		t.Errorf("delivered %.1f/s not clearly below offered %.1f/s", del, off)
	}
	if sp, svc := r.Sojourn.Percentile(99), r.Service.Percentile(99); sp < 10*svc {
		t.Errorf("sojourn p99 %v not far above service p99 %v — queueing invisible", sp, svc)
	}
	if r.Depth.Max() < 100 {
		t.Errorf("max observed queue depth %v too small for a 3x overload", r.Depth.Max())
	}
	checkIdentities(t, &r)
	s.Eng.Shutdown()
}

// TestOpenLoopMaxQueueDrops: a bounded admission queue sheds load and
// the drops land in the taxonomy without being executed.
func TestOpenLoopMaxQueueDrops(t *testing.T) {
	s := shardedStore(ods.PMDurability, 9, 4)
	cfg := DefaultOpenConfig()
	cfg.Rate = 6000
	cfg.Window = sim.Second
	cfg.MaxQueue = 32
	r := RunOpen(s, cfg)
	if r.Drops == 0 {
		t.Fatal("no drops with MaxQueue=32 under 3x overload")
	}
	if r.Depth.Max() > sim.Time(cfg.MaxQueue) {
		t.Errorf("observed depth %v above the %d bound", r.Depth.Max(), cfg.MaxQueue)
	}
	checkIdentities(t, &r)
	s.Eng.Shutdown()
}

// TestOpenLoopPreWarmedEngine: Elapsed and latencies are relative to
// the run's own start, so a harness started on an engine that has
// already advanced reports the same window arithmetic as a cold one.
func TestOpenLoopPreWarmedEngine(t *testing.T) {
	s := shardedStore(ods.PMDurability, 15, 4)
	s.Eng.RunUntil(3 * sim.Second) // warm: drain startup, advance the clock
	cfg := DefaultOpenConfig()
	cfg.Rate = 500
	cfg.Window = 500 * sim.Millisecond
	r := RunOpen(s, cfg)
	if r.Elapsed >= 3*sim.Second {
		t.Errorf("Elapsed %v contains the 3s warmup — absolute time leaked into the window", r.Elapsed)
	}
	if r.Elapsed < cfg.Window {
		t.Errorf("Elapsed %v below the %v arrival window", r.Elapsed, cfg.Window)
	}
	if got := r.Offered(); got < 400 || got > 600 {
		t.Errorf("offered %.1f/s on a warmed engine, want ~500/s", got)
	}
	checkIdentities(t, &r)
	s.Eng.Shutdown()
}

// TestOpenLoopLoadSpans: the metrics layer's load conservation law
// (arrivals == starts + drops + still-queued) holds after a drained
// run, and the counters mirror the harness's own ledger.
func TestOpenLoopLoadSpans(t *testing.T) {
	opts := ods.DefaultOptions()
	opts.Seed = 17
	opts.Durability = ods.PMDurability
	opts.Files = []ods.FileSpec{{Name: "TRADES", Partitions: 4}}
	opts.DataVolumes = 4
	opts.PMRegionBytes = 8 << 20
	opts.Metrics = metrics.NewRegistry()
	s := ods.Build(opts)

	cfg := DefaultOpenConfig()
	cfg.Rate = 4000
	cfg.Window = sim.Second
	cfg.MaxQueue = 64
	r := RunOpen(s, cfg)
	if errs := opts.Metrics.CheckConservation(); len(errs) != 0 {
		t.Errorf("conservation checks failed: %v", errs)
	}
	ld := opts.Metrics.Load
	if got := ld.Arrivals.Value(); got != r.Arrivals {
		t.Errorf("metrics arrivals %d != result arrivals %d", got, r.Arrivals)
	}
	if got := ld.Drops.Value(); got != r.Drops {
		t.Errorf("metrics drops %d != result drops %d", got, r.Drops)
	}
	if got := ld.Queued.Value(); got != 0 {
		t.Errorf("queued gauge %d after full drain, want 0", got)
	}
	if ld.Wait.Count() != r.Txns {
		t.Errorf("wait samples %d != executed txns %d", ld.Wait.Count(), r.Txns)
	}
	s.Eng.Shutdown()
}

// TestStartOpenUnknownFile: driving a file the store does not have is a
// programming error and must fail loudly.
func TestStartOpenUnknownFile(t *testing.T) {
	s := shardedStore(ods.PMDurability, 1, 2)
	defer s.Eng.Shutdown()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown file")
		}
	}()
	cfg := DefaultOpenConfig()
	cfg.File = "NOSUCH"
	StartOpen(s, cfg)
}

// TestOpenConfigDefaultsFillSparseConfig: a zero config resolves to
// DefaultOpenConfig on the store's first file, and a config naming only the
// rate and the window runs exactly the cell DefaultOpenConfig would with
// those two fields set.
func TestOpenConfigDefaultsFillSparseConfig(t *testing.T) {
	s := ods.Build(ods.DefaultOptions())
	want := DefaultOpenConfig()
	want.File = s.Opts.Files[0].Name
	if got := (OpenConfig{}).withDefaults(s); got != want {
		t.Errorf("zero config resolved to %+v, want %+v", got, want)
	}
	s.Shutdown()

	run := func(cfg OpenConfig) string {
		opts := ods.DefaultOptions()
		s := ods.Build(opts)
		defer s.Shutdown()
		r := RunOpen(s, cfg)
		if r.Commits == 0 {
			t.Fatal("run committed nothing")
		}
		return r.String()
	}
	full := DefaultOpenConfig()
	full.File = ods.DefaultOptions().Files[0].Name
	full.Rate, full.Window = 2000, 100*sim.Millisecond
	sparse := OpenConfig{Rate: 2000, Window: 100 * sim.Millisecond}
	if a, b := run(sparse), run(full); a != b {
		t.Errorf("sparse config diverged from the explicit defaults:\n--- sparse ---\n%s\n--- explicit ---\n%s", a, b)
	}
}
