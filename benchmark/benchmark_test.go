package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// busyLoop burns CPU under a name the decoder test can look for.
//
//go:noinline
func busyLoop(d time.Duration) uint64 {
	var x uint64
	for t0 := time.Now(); time.Since(t0) < d; {
		for i := 0; i < 1<<16; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestDecodeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiler is in use: %v", err)
	}
	busyLoop(300 * time.Millisecond)
	pprof.StopCPUProfile()

	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, busy int64
	for _, s := range samples {
		total += s.count
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".busyLoop") {
				busy += s.count
				break
			}
		}
	}
	if total < 10 {
		t.Fatalf("decoded %d samples from 300 ms of spinning, want at least 10", total)
	}
	if busy*2 < total {
		t.Errorf("%d of %d samples name busyLoop, want most of them", busy, total)
	}
	shares, n := cpuShares(samples)
	if n != total {
		t.Errorf("cpuShares counted %d samples, decoded %d", n, total)
	}
	var sum float64
	for _, pct := range shares {
		sum += pct
	}
	if sum < 99.999 || sum > 100.001 {
		t.Errorf("layer shares sum to %v, want 100", sum)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not a profile")); err == nil {
		t.Error("decodeProfile accepted bytes that are not gzip")
	}
	var gz bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&gz, 0); err != nil {
		t.Fatal(err)
	}
	b := gz.Bytes()
	if _, err := decodeProfile(b[:len(b)/2]); err == nil {
		t.Error("decodeProfile accepted a truncated profile")
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		name  string
		stack []string
		known []string
		want  string
	}{
		{"leaf in layer", []string{"persistmem/internal/dp2.(*DP2).insert", "persistmem/internal/cluster.(*Process).run"}, cpuLayers, "dp2"},
		{"runtime under a layer goes to the layer", []string{"runtime.mallocgc", "runtime.newobject", "persistmem/internal/sim.(*Engine).Schedule", "persistmem/internal/adp.(*ADP).flush"}, cpuLayers, "sim"},
		{"coroutine handoff belongs to sim", []string{"runtime.chanrecv", "runtime.gopark", "persistmem/internal/sim.(*Proc).park"}, cpuLayers, "sim"},
		{"sub-package counts as parent", []string{"persistmem/internal/sim/parallel.(*Cluster).Run"}, cpuLayers, "sim"},
		{"hist backs metrics", []string{"persistmem/internal/hist.(*H).Record", "persistmem/internal/loadgen.(*OpenPending).runTxn"}, cpuLayers, "metrics"},
		{"program package without a bucket", []string{"persistmem/internal/pmheap.Alloc"}, cpuLayers, layerOther},
		{"scheduler", []string{"runtime.futex", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, cpuLayers, layerSched},
		{"background mark worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, cpuLayers, layerGC},
		{"sweeper", []string{"runtime.(*sweepLocked).sweep", "runtime.sweepone", "runtime.bgsweep"}, cpuLayers, layerGC},
		{"assist under a layer stays with the layer", []string{"runtime.gcAssistAlloc", "runtime.mallocgc", "persistmem/internal/tmf.(*TMF).commit"}, cpuLayers, "tmf"},
		{"benchmark's own goroutine", []string{"sort.Slice", "main.repHotstock", "main.main", "runtime.main"}, cpuLayers, layerOther},
		{"profile writer", []string{"compress/flate.(*compressor).deflate", "runtime/pprof.profileWriter"}, cpuLayers, layerOther},
		{"empty stack", nil, cpuLayers, layerOther},
		{"alloc family has no dp2-less bucket", []string{"runtime.mallocgc", "persistmem/internal/btree.(*Tree[...]).Set"}, allocLayers, layerOther},
		{"alloc family: runtime-only stack", []string{"runtime.malg", "runtime.newproc1"}, allocLayers, layerOther},
		{"alloc family: layer", []string{"runtime.mallocgc", "persistmem/internal/dp2.(*DP2).audit"}, allocLayers, "dp2"},
	} {
		if got := layerOf(tc.stack, tc.known); got != tc.want {
			t.Errorf("%s: layerOf = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestPercentileAndTailRule(t *testing.T) {
	sorted := make([]int64, 1000)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	for _, tc := range []struct {
		p    float64
		want int64
	}{{50, 500}, {99, 990}, {100, 1000}, {0, 1}, {99.9, 999}} {
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(1..1000, %v) = %d, want %d", tc.p, got, tc.want)
		}
	}
	if got := percentile([]int64{7}, 99); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	// Ten samples must lie beyond the percentile.
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{{1000, 99, true}, {999, 99, false}, {8000, 99, true}, {8000, 99.9, false}, {10000, 99.9, true}, {20, 50, true}, {19, 50, false}} {
		if got := tailSupported(tc.n, tc.p); got != tc.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestMedianAndQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if m := median(xs); m != 3 {
		t.Errorf("median = %v, want 3", m)
	}
	// statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
	if q1, q3 := quartiles(xs); q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles = %v, %v, want 1.5, 4.5", q1, q3)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if s := spread(ten); s != 1 {
		t.Errorf("spread of 1..10 = %v, want 1", s)
	}
	if q1, q3 := quartiles([]float64{9}); q1 != 9 || q3 != 9 {
		t.Errorf("quartiles of one value = %v, %v", q1, q3)
	}
}

func TestMaxRateLadder(t *testing.T) {
	const window = 2_000_000_000
	ok := func(rate float64, p99ms int64) rung {
		return rung{rate: rate, p99Ns: p99ms * 1_000_000, arrivals: 100, commits: 100, elapsedNs: window + window/200, windowNs: window}
	}
	slow := ok(2800, 64)
	aborted := ok(2550, 12)
	aborted.commits = 99
	backlog := ok(2550, 12)
	backlog.elapsedNs = window + window/50 // drained 2% late
	for _, tc := range []struct {
		name   string
		ladder []rung
		want   float64
	}{
		{"today's curve", []rung{ok(1530, 4), ok(2295, 8), ok(2550, 13), slow, ok(3060, 285)}, 2550},
		{"limit is inclusive", []rung{ok(1530, 25)}, 1530},
		{"aborted rung ends the climb", []rung{ok(1530, 4), ok(2295, 8), aborted, ok(2800, 14)}, 2295},
		{"growing backlog ends the climb", []rung{ok(1530, 4), ok(2295, 8), backlog}, 2295},
		{"a lucky rung above the knee is not reported", []rung{ok(1530, 4), slow, ok(3060, 20)}, 1530},
		{"nothing sustained", []rung{slow}, 0},
		{"empty ladder", nil, 0},
	} {
		if got := maxRate(tc.ladder); got != tc.want {
			t.Errorf("%s: maxRate = %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{name: "wall_s", better: "lower", bound: 0.08}
	higher := metricDef{name: "virt_txn_per_s", better: "higher", bound: 0.005}
	exact := metricDef{name: "virt_max_rate_tps", better: "higher", bound: 0}
	host := func(v float64, samples ...float64) stat { return stat{Value: v, Samples: samples} }
	for _, tc := range []struct {
		name string
		d    metricDef
		a, b stat
		want verdict
	}{
		{"within bound", lower, host(1.00, 0.99, 1.00, 1.01), host(1.05, 1.04, 1.05, 1.06), same},
		{"slower beyond bound", lower, host(1.00, 0.99, 1.00, 1.01), host(1.10, 1.09, 1.10, 1.11), worse},
		{"faster beyond bound", lower, host(1.00, 0.99, 1.00, 1.01), host(0.90, 0.89, 0.90, 0.91), better},
		{"noise wider than the bound", lower, host(1.00, 0.80, 1.00, 1.20), host(1.10, 0.90, 1.10, 1.30), unresolved},
		{"noisy but cleanly separated", lower, host(1.00, 0.80, 1.00, 1.20), host(0.50, 0.40, 0.50, 0.60), better},
		{"noisy and cleanly worse", lower, host(1.00, 0.80, 1.00, 1.20), host(2.00, 1.60, 2.00, 2.40), worse},
		{"virtual, identical", higher, stat{Value: 902.06}, stat{Value: 902.06}, same},
		{"virtual, throughput fell", higher, stat{Value: 902.06}, stat{Value: 890}, worse},
		{"virtual, throughput rose", higher, stat{Value: 902.06}, stat{Value: 950}, better},
		{"zero bound, a rung lost", exact, stat{Value: 2550}, stat{Value: 2295}, worse},
		{"zero bound, unchanged", exact, stat{Value: 2550}, stat{Value: 2550}, same},
	} {
		if got := judge(tc.d, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
}

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name, Why string
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return m
}

// TestManifestMatchesCode holds BENCHMARK.json to the metric and
// workload tables the benchmark prints from.
func TestManifestMatchesCode(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark runs %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%q), the benchmark %q (%q)",
				i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []manifestMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d]: BENCHMARK.json says %s/%s/%s, the benchmark %s/%s/%s",
					kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != d.bound):
				t.Errorf("%s %s: bound differs from the benchmark's %v", kind, d.name, d.bound)
			case bounded && (*g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s %s: bound %v outside (0, 0.25]", kind, d.name, *g.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, driverEndToEnd(), true)
	check("per_layer", m.PerLayer, driverPerLayer(), false)
	if n := len(m.PerLayer); n > 128 {
		t.Errorf("per_layer lists %d metrics, the limit is 128", n)
	}
	for _, d := range driverEndToEnd() {
		if len(d.on) != len(workloads) {
			t.Errorf("%s is listed end to end but not defined on every workload", d.name)
		}
	}
	seen := map[string]bool{}
	for _, d := range metricDefs {
		if seen[d.name] {
			t.Errorf("metric %s is defined twice", d.name)
		}
		seen[d.name] = true
	}
}

// TestSmoke runs all four workloads and the probes at tiny sizes and
// checks the benchmark's shape: every named metric printed exactly once
// per workload, all outputs correct, and the driver's form ending in a
// result line that carries exactly the manifest's metrics.
func TestSmoke(t *testing.T) {
	if len(commitPhases) != 10 {
		t.Fatalf("the program has %d commit phases; metrics.go and the README name 10", len(commitPhases))
	}
	outPath := filepath.Join(t.TempDir(), "smoke.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-smoke", "-artifacts", "..", "-out", outPath}, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d:\n%s", code, stderr.String())
	}
	printed := map[string]int{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(line); len(f) >= 4 && !strings.HasPrefix(line, "#") {
			printed[f[0]+" "+f[1]]++
		}
	}
	for _, w := range workloads {
		for _, d := range metricDefs {
			if n := printed[w.name+" "+d.name]; n != 1 {
				t.Errorf("%s %s printed %d times, want once", w.name, d.name, n)
			}
		}
	}
	if want := len(workloads) * len(metricDefs); len(printed) != want {
		t.Errorf("%d distinct (workload, metric) lines printed, want %d", len(printed), want)
	}

	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Host.GOMAXPROCS < 1 || doc.Host.NProc < 1 || doc.Host.GoVersion == "" {
		t.Errorf("host record is incomplete: %+v", doc.Host)
	}
	byName := map[string]*workloadResult{}
	for _, r := range doc.Workloads {
		byName[r.Workload] = r
		if !r.Correct || r.Digest == "" || r.Attempted < 1 {
			t.Errorf("%s: correct=%v digest=%q attempted=%d", r.Workload, r.Correct, r.Digest, r.Attempted)
		}
		var phases, shares float64
		for name, s := range r.Metrics {
			if strings.HasPrefix(name, "phase_s.") {
				phases += s.Value
			}
			if strings.HasPrefix(name, "host_self_pct.") {
				shares += s.Value
			}
		}
		if phases <= 0 {
			t.Errorf("%s: no host time in any phase", r.Workload)
		}
		if r.ProfileSamples > 0 && (shares < 99.99 || shares > 100.01) {
			t.Errorf("%s: host_self_pct sums to %v, want 100", r.Workload, shares)
		}
	}
	// The bypass predictions hold at any size.
	for _, tc := range []struct {
		workload, metric string
	}{
		{wlHotDisk, "pmclient.writes_per_txn"}, {wlHotPM, "disk.audit.util_pct"},
		{wlHotDisk, "locks.waits_per_txn"}, {wlHotPM, "locks.waits_per_txn"},
		{wlHotDisk, "phase_s.recover"}, {wlHotPM, "phase_s.recover"}, {wlOpen, "phase_s.recover"},
	} {
		if v := byName[tc.workload].Metrics[tc.metric].Value; v != 0 {
			t.Errorf("%s: %s = %v, predicted 0", tc.workload, tc.metric, v)
		}
	}
	for _, tc := range []struct {
		workload, metric string
	}{
		{wlHotPM, "pmclient.writes_per_txn"}, {wlHotDisk, "disk.audit.util_pct"},
		{wlFault, "phase_s.recover"}, {wlFault, "virt_mttr_ms"}, {wlOpen, "virt_sojourn_p99_us_r2295"},
	} {
		if v := byName[tc.workload].Metrics[tc.metric].Value; v <= 0 {
			t.Errorf("%s: %s = %v, want it to register", tc.workload, tc.metric, v)
		}
	}

	// The driver's form: the last line is the result, with exactly the
	// manifest's end_to_end metrics. (TestManifestMatchesCode holds the
	// per_layer list to what a --trace 1 run prints.)
	want := readManifest(t).EndToEnd
	stdout.Reset()
	args := []string{"-smoke", "-artifacts", "..", "--workload", wlHotPM, "--seed", "3", "--seconds", "1", "--trace", "0"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("driver run exited %d:\n%s", code, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not JSON: %v", err)
	}
	if len(res) != 4 {
		t.Errorf("result has %d keys, want correct, attempted, failed, metrics", len(res))
	}
	var metrics map[string]driverMetric
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(want) {
		t.Errorf("%d metrics in the result, BENCHMARK.json lists %d", len(metrics), len(want))
	}
	for _, w := range want {
		if got, ok := metrics[w.Name]; !ok || got.Unit != w.Unit || got.Value <= 0 {
			t.Errorf("metric %s: present=%v unit=%q value=%v, want unit %q and a value above 0", w.Name, ok, got.Unit, got.Value, w.Unit)
		}
	}
}

func TestUnknownWorkloadAndFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Errorf("unknown workload: exit %d, stdout %q; want non-zero and nothing printed", code, stdout.String())
	}
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code == 0 {
		t.Error("unknown flag: exit 0")
	}
	stdout.Reset()
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "virt_max_rate_tps") {
		t.Errorf("-list: exit %d, output lacks virt_max_rate_tps", code)
	}
}
