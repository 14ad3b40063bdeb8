package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"
)

// workload is one named set of inputs. Cells run one at a time in this
// process; no sweep pool is used, so the numbers measure the program
// and not a scheduler.
type workload struct {
	name string
	why  string // one line, as BENCHMARK.json carries it
	rep  func(pc *phaseClock, sz sizing, seed int64, traced bool) *repOut
}

var workloads = []workload{
	{wlHotDisk, "closed loop, 2 drivers, 8000 txns of 8x4KB inserts, disk audit: the audit-disk flush and ADP group commit do the virtual work, the PM path none",
		func(pc *phaseClock, sz sizing, seed int64, traced bool) *repOut {
			return repHotstock(pc, sz, "disk", seed, traced)
		}},
	{wlHotPM, "the same load under PM audit: mirrored RDMA writes replace the audit disks, so a fabric or PM change moves this workload and a disk change must not",
		func(pc *phaseClock, sz sizing, seed int64, traced bool) *repOut {
			return repHotstock(pc, sz, "pm", seed, traced)
		}},
	{wlOpen, "open loop on the 4-shard PM store: Poisson, Zipf 1.2, 20% reads, rungs 1530-3060 tx/s x 2 s plus a 50% two-phase cell: queueing, hot shards and backlog past the knee",
		repOpenLoop},
	{wlFault, "64-cell fault matrix (recover, invariants, history check) and three 4000-txn crash-and-recover cells: 67 stores built a rep, so construction, takeover and recovery do the work",
		repFaultRecover},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// stat is one reported metric.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Raw is the median as the clock read it, for a host time that is
	// reported in yardstick seconds.
	Raw float64 `json:"raw,omitempty"`
	// Samples are the values a host measurement's Value is the median
	// of: their count and quartiles are printed with it, and -compare
	// tells a resolved change from noise by them.
	Samples []float64 `json:"samples,omitempty"`
}

// workloadResult is everything one workload's measurement produced.
type workloadResult struct {
	Workload       string          `json:"workload"`
	Correct        bool            `json:"correct"`
	Wrong          []string        `json:"wrong,omitempty"`
	Attempted      int64           `json:"attempted"`
	Failed         int64           `json:"failed"`
	Digest         string          `json:"virt_digest"`
	Reps           int             `json:"reps"`
	TracedReps     int             `json:"traced_reps,omitempty"`
	ProfileSamples int64           `json:"profile_samples,omitempty"`
	Metrics        map[string]stat `json:"metrics"`
}

func (r *workloadResult) set(name string, v float64) { r.Metrics[name] = stat{Value: v} }

// setSamples reports the median of xs; raw, when not zero, is the same
// median before conversion to yardstick seconds.
func (r *workloadResult) setSamples(name string, xs []float64, raw float64) {
	r.Metrics[name] = stat{Value: median(xs), Raw: raw, Samples: xs}
}

// adopt takes a pass's counts and digest as the workload's.
func (r *workloadResult) adopt(p pass) {
	r.Reps = len(p.samples)
	r.Attempted, r.Failed, r.Digest = p.out.attempted, p.out.failed, p.out.digest()
}

func (r *workloadResult) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	for _, w := range r.Wrong {
		if w == msg {
			return
		}
	}
	r.Wrong = append(r.Wrong, msg)
}

// bench is one benchmark process: its sizes, its seed and what it keeps
// in memory until exit.
type bench struct {
	epoch     time.Time
	sz        sizing
	seed      int64
	seconds   float64 // how long each pass measures
	artifacts string  // directory holding the committed CSV artifacts
	spans     *[]span // non-nil: retain every phase span
	cpuOut    string  // non-empty: raw CPU profiles are written to <cpuOut>.<workload>.pb.gz
	memOut    string  // likewise for the allocation profile
}

// repSample is the host side of one rep.
type repSample struct {
	wallS   float64 // as the clock read it
	yardS   float64 // the yardstick beside this rep: mean of the runs before and after it
	allocMB float64
	mallocs float64
	phaseS  [numPhases]float64
}

// pass is a series of reps of one workload under one instrument setting.
type pass struct {
	samples []repSample
	out     *repOut // the first rep's outputs; every rep must reproduce its digest
}

// walls returns every rep's wall time in yardstick seconds.
func (p *pass) walls() []float64 {
	xs := make([]float64, len(p.samples))
	for i, s := range p.samples {
		xs[i] = yardSeconds(s.wallS, s.yardS)
	}
	return xs
}

func (p *pass) rawWalls() []float64 {
	xs := make([]float64, len(p.samples))
	for i, s := range p.samples {
		xs[i] = s.wallS
	}
	return xs
}

// medianRep is the rep whose wall time (in yardstick seconds) is the
// median, so that its phase spans tile the reported wall_s itself and
// not a mix of reps.
func (p *pass) medianRep() repSample {
	walls := p.walls()
	m := median(walls)
	best := 0
	for i := range walls {
		if math.Abs(walls[i]-m) < math.Abs(walls[best]-m) {
			best = i
		}
	}
	return p.samples[best]
}

// oneRep runs and times a single rep. The collector runs first, off the
// clock, so each rep starts from the same heap. around, when set, brackets
// the measured part (the traced pass profiles inside it).
func (b *bench) oneRep(w workload, n int, traced bool, around func(measure func())) (repSample, *repOut) {
	runtime.GC()
	pc := &phaseClock{epoch: b.epoch, workload: w.name, rep: n, retain: b.spans}
	var s repSample
	var out *repOut
	measure := func() {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		out = w.rep(pc, b.sz, b.seed, traced)
		wall := time.Since(t0)
		runtime.ReadMemStats(&m1)
		s.wallS = wall.Seconds()
		s.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6
		s.mallocs = float64(m1.Mallocs - m0.Mallocs)
	}
	if around != nil {
		around(measure)
	} else {
		measure()
	}
	for i, d := range pc.total {
		s.phaseS[i] = d.Seconds()
	}
	return s, out
}

// reps repeats the workload until enough says so, holding every rep to
// the correctness gate and to the first rep's digest. The yardstick runs
// before the first rep and after every rep; each rep is read against the
// two runs beside it.
func (b *bench) reps(w workload, res *workloadResult, traced bool, around func(func()), enough func(n int, elapsedS float64) bool) pass {
	var p pass
	start := time.Now()
	before := yardstick(b.sz.yardEvents).Seconds()
	for n := 0; !enough(n, time.Since(start).Seconds()); n++ {
		s, out := b.oneRep(w, n, traced, around)
		after := yardstick(b.sz.yardEvents).Seconds()
		s.yardS = (before + after) / 2
		before = after
		p.samples = append(p.samples, s)
		for _, msg := range out.wrong {
			res.fail("%s", msg)
		}
		if p.out == nil {
			p.out = out
		} else if d := out.digest(); d != p.out.digest() {
			res.fail("rep %d produced virt_digest %s, rep 0 produced %s: the run is not deterministic", n, d, p.out.digest())
		}
	}
	return p
}

// untilSeconds is the stop rule of a timed pass: at least min reps, at
// least the run's seconds (yardstick runs included), and an odd count so
// the median is a rep.
func (b *bench) untilSeconds(min int, seconds float64) func(int, float64) bool {
	return func(n int, elapsedS float64) bool {
		return n >= min && elapsedS >= seconds && n%2 == 1
	}
}

// measureSetup times cold set-ups of the workload's store: the collector
// runs and returns memory to the OS off the clock, then ods.Build plus
// the idle store's first Run are timed. Warm set-ups reuse the previous
// store's spans and swing threefold, which is why every one is forced
// cold. The first two are warm-ups and are dropped. The yardstick runs
// between batches of eight. It returns the set-ups in yardstick seconds
// and as the clock read them.
func (b *bench) measureSetup(w workload) (yard, raw []float64) {
	const batch = 8
	one := func() float64 {
		runtime.GC()
		debug.FreeOSMemory()
		t0 := time.Now()
		teardown := setupStore(w.name, b.seed)
		dt := time.Since(t0)
		teardown()
		return dt.Seconds()
	}
	for i := 0; i < b.sz.setupWarmups; i++ {
		one()
	}
	before := yardstick(b.sz.yardEvents).Seconds()
	for len(raw) < b.sz.setups {
		n := min(batch, b.sz.setups-len(raw))
		for i := 0; i < n; i++ {
			raw = append(raw, one())
		}
		after := yardstick(b.sz.yardEvents).Seconds()
		for _, x := range raw[len(raw)-n:] {
			yard = append(yard, yardSeconds(x, (before+after)/2))
		}
		before = after
	}
	return yard, raw
}

// endToEnd is the untraced pass: every end-to-end metric of one
// workload. It returns the pass so a traced pass can be compared with it.
func (b *bench) endToEnd(w workload, res *workloadResult) pass {
	p := b.reps(w, res, false, nil, b.untilSeconds(b.sz.minReps, b.seconds))
	out := p.out
	res.adopt(p)

	var alloc, perTxn []float64
	for _, s := range p.samples {
		alloc = append(alloc, s.allocMB)
		perTxn = append(perTxn, ratio(s.mallocs, float64(out.committed)))
	}
	res.setSamples("wall_s", p.walls(), median(p.rawWalls()))
	res.setSamples("alloc_mb", alloc, 0)
	res.setSamples("allocs_per_txn", perTxn, 0)
	setups, rawSetups := b.measureSetup(w)
	res.setSamples("setup_s", setups, median(rawSetups))
	res.set("fail_pct", 100*ratio(float64(out.failed), float64(out.attempted)))
	for _, d := range metricDefs {
		if v, ok := out.virt[d.name]; ok && d.endToEnd {
			res.set(d.name, v)
		}
	}
	if b.sz.crossCheck && b.seed == 1 {
		b.checkArtifacts(out, res)
	}
	return p
}

// checkArtifacts holds a seed-1 full-size rep to the committed CSVs.
func (b *bench) checkArtifacts(out *repOut, res *workloadResult) {
	files := map[string][]string{}
	for _, a := range out.artifacts {
		lines, ok := files[a.file]
		if !ok {
			data, err := os.ReadFile(b.artifacts + "/" + a.file)
			if err != nil {
				res.fail("artifact check: %v", err)
				continue
			}
			lines = strings.Split(string(data), "\n")
			files[a.file] = lines
		}
		want, found := csvField(lines, a.rowPrefix, a.column)
		switch {
		case !found:
			res.fail("artifact check: %s has no row %q", a.file, a.rowPrefix)
		case want != a.got:
			res.fail("artifact check: %s row %q says %q, this run produced %q", a.file, a.rowPrefix, want, a.got)
		}
	}
}

// csvField finds the row that starts with prefix and returns its
// column-th field, or everything after the prefix for wholeRow.
func csvField(lines []string, prefix string, column int) (string, bool) {
	for _, l := range lines {
		rest, ok := strings.CutPrefix(l, prefix)
		if !ok {
			continue
		}
		if column == wholeRow {
			return rest, true
		}
		cols := strings.Split(l, ",")
		return cols[min(column, len(cols)-1)], column < len(cols)
	}
	return "", false
}

// perLayer is the traced pass: the same workload again with the span
// registry attached under a CPU profile, then once more under an exact
// allocation profile. base is the untraced pass it is compared with.
func (b *bench) perLayer(w workload, res *workloadResult, base pass) {
	// CPU-profiled reps with the registry. Each rep is profiled on its
	// own so the yardstick between reps stays out of the shares. The
	// simulator keeps about one core busy, so at the profiler's 100 Hz
	// the default run's 12 s give the 1000 samples the shares need.
	var samples []stackSample
	profiled := func(measure func()) {
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			res.fail("cpu profile: %v", err)
			measure()
			return
		}
		measure()
		pprof.StopCPUProfile()
		if b.cpuOut != "" {
			path := fmt.Sprintf("%s.%s.%d.pb.gz", b.cpuOut, w.name, res.TracedReps)
			if err := os.WriteFile(path, prof.Bytes(), 0o644); err != nil {
				res.fail("cpu profile: %v", err)
			}
		}
		res.TracedReps++
		got, err := decodeProfile(prof.Bytes())
		if err != nil {
			res.fail("cpu profile: %v", err)
		}
		samples = append(samples, got...)
	}
	traced := b.reps(w, res, true, profiled, b.untilSeconds(min(3, b.sz.minReps), 0.6*b.seconds))
	if got, want := traced.out.digest(), base.out.digest(); got != want {
		res.fail("traced rep produced virt_digest %s, untraced %s: the registry is not schedule-neutral", got, want)
	}

	// Host phases, from the untraced rep whose wall is the median.
	mid := base.medianRep()
	var phaseSum float64
	for i, name := range phaseNames {
		res.set("phase_s."+name, yardSeconds(mid.phaseS[i], mid.yardS))
		phaseSum += mid.phaseS[i]
	}
	if math.Abs(phaseSum-mid.wallS) > 0.01*mid.wallS {
		res.fail("phase spans sum to %.4f s, the rep took %.4f s: they do not tile", phaseSum, mid.wallS)
	}

	// Host self time by layer.
	shares, total := cpuShares(samples)
	res.ProfileSamples = total
	for l, pct := range shares {
		res.set("host_self_pct."+l, pct)
	}
	if b.sz.crossCheck && shares[layerOther] > 5 {
		res.fail("host_self_pct.other is %.1f%%: more than 5%% of the profile is unattributed", shares[layerOther])
	}

	// Allocations by layer, from one untraced rep under an exact profile
	// so the layers add up to the end-to-end allocs_per_txn.
	before := allocsByLayer()
	rate := runtime.MemProfileRate
	runtime.MemProfileRate = 1
	_, out := b.oneRep(w, len(base.samples), false, nil)
	runtime.MemProfileRate = rate
	after := allocsByLayer()
	if b.memOut != "" {
		var buf bytes.Buffer
		err := pprof.Lookup("allocs").WriteTo(&buf, 0)
		if err == nil {
			err = os.WriteFile(b.memOut+"."+w.name+".pb.gz", buf.Bytes(), 0o644)
		}
		if err != nil {
			res.fail("alloc profile: %v", err)
		}
	}
	for _, l := range allocLayers {
		res.set("allocs_per_txn."+l, ratio(float64(after[l]-before[l]), float64(out.committed)))
	}

	// Simulation kernel.
	o := base.out
	wall := median(base.walls())
	var yards []float64
	for _, s := range base.samples {
		yards = append(yards, s.yardS)
	}
	res.set("host.yardstick_s", median(yards))
	res.set("sim.events_per_txn", ratio(float64(o.events), float64(o.committed)))
	res.set("sim.host_ns_per_event", ratio(wall*1e9, float64(o.events)))
	res.set("sim.virt_s_per_host_s", ratio(float64(o.virtNs)/1e9, wall))
	res.set("metrics.trace_overhead_pct", 100*ratio(median(traced.walls())-wall, wall))

	// Everything the program's own counters and the registry yield.
	for _, d := range metricDefs {
		if d.endToEnd {
			continue
		}
		if v, ok := traced.out.layer[d.name]; ok {
			res.set(d.name, v)
		} else if v, ok := o.virt[d.name]; ok {
			res.set(d.name, v)
		}
	}
}

// allocsByLayer reads the cumulative allocation profile and sums
// allocated objects per layer. The runtime publishes profile records up
// to two collection cycles late, hence the two forced collections.
func allocsByLayer() map[string]int64 {
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+128)
	for {
		var ok bool
		if n, ok = runtime.MemProfile(recs, true); ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, 2*len(recs))
	}
	out := map[string]int64{}
	var stack []string
	for i := range recs {
		stack = stack[:0]
		frames := runtime.CallersFrames(recs[i].Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		out[layerOf(stack, allocLayers)] += recs[i].AllocObjects
	}
	return out
}

// setProbes writes the layer probes into a result.
func setProbes(res *workloadResult, probes map[string]probeOut) {
	for _, name := range probeNames {
		p, ok := probes[name]
		if !ok {
			res.fail("probe %s did not run", name)
			continue
		}
		res.set("probe."+name+".host_ns", p.hostNs)
		res.set("probe."+name+".allocs", p.allocs)
		res.set("probe."+name+".events", p.events)
		if probeHasVirt[name] {
			res.set("probe."+name+".virt_us", p.virtUs)
		}
	}
}

// finish fills in units, reports as 0 what the workload does not define,
// and refuses a result that lacks a metric the workload does define.
func (res *workloadResult) finish(defs []metricDef) {
	for _, d := range defs {
		s, ok := res.Metrics[d.name]
		if !ok && d.definedOn(res.Workload) {
			res.fail("metric %s was not measured", d.name)
		}
		s.Unit = d.unit
		res.Metrics[d.name] = s
	}
	res.Correct = len(res.Wrong) == 0
}
