// Command benchmark is the repository's benchmark: four workloads, the
// end-to-end metrics a user of the store (virtual time) and of the
// simulator (host time) sees, and a traced pass that says which layer
// the time went to. README.md in this directory is the manual.
//
// The driver's form runs one workload and prints one JSON result line:
//
//	go run ./benchmark --workload hotstock-pm --seed 7 --seconds 20 --trace 0
//
// Without --workload it runs all four, untraced then traced, prints
// every metric by name and writes the whole document to -out:
//
//	go run ./benchmark -seed 1 -out /tmp/bench.json
//	go run ./benchmark -compare /tmp/parent.json /tmp/change.json
//	go run ./benchmark -list | -selfcheck | -smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"
)

// hostRecord says where the numbers were taken. The benchmark never
// overrides GOMAXPROCS; it records what it ran under.
type hostRecord struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Kernel     string `json:"kernel"`
}

func thisHost() hostRecord {
	h := hostRecord{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH,
	}
	if rel, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(rel))
	}
	return h
}

// document is what a full run writes to -out and what -compare reads.
type document struct {
	Host      hostRecord        `json:"host"`
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Smoke     bool              `json:"smoke,omitempty"`
	Workloads []*workloadResult `json:"workloads"`
	Spans     []span            `json:"spans,omitempty"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "run only this workload and end with the driver's one-line JSON result")
		seed      = fs.Int64("seed", 1, "workload seed; 1 is also held to the committed CSV artifacts")
		seconds   = fs.Float64("seconds", 20, "how long each pass of each workload measures (more seconds, more reps)")
		trace     = fs.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced pass")
		outPath   = fs.String("out", "", "write the full run's document here")
		smoke     = fs.Bool("smoke", false, "tiny sizes, one rep: checks the benchmark's shape, not the program's speed")
		list      = fs.Bool("list", false, "print every metric's name, unit, direction and bound, then exit")
		compare   = fs.Bool("compare", false, "compare two documents: -compare parent.json change.json")
		selfcheck = fs.Bool("selfcheck", false, "run the suite twice and fail if the two runs disagree beyond the bounds")
		cpuOut    = fs.String("cpuprofile", "", "write each traced pass's raw CPU profile to <prefix>.<workload>.pb.gz")
		memOut    = fs.String("memprofile", "", "write each traced pass's raw allocation profile to <prefix>.<workload>.pb.gz")
		spansOut  = fs.Bool("spans", false, "keep every phase span and write them into the -out document")
		artifacts = fs.String("artifacts", ".", "directory holding figure1_full.csv and saturation_full.csv")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch {
	case *list:
		printList(stdout)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare parent.json change.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	b := &bench{
		epoch: time.Now(), sz: fullSize, seed: *seed, seconds: *seconds,
		artifacts: *artifacts, cpuOut: *cpuOut, memOut: *memOut,
	}
	if *smoke {
		b.sz, b.seconds = smokeSize, 0
	}
	if *spansOut {
		b.spans = new([]span)
	}

	if *name != "" {
		w, ok := workloadNamed(*name)
		if !ok {
			fmt.Fprintf(stderr, "unknown workload %q\n", *name)
			return 2
		}
		return b.runForDriver(w, *trace == 1, stdout)
	}

	doc := b.runAll(stdout)
	doc.Smoke = *smoke
	code := doc.exitCode(stderr)
	if *selfcheck {
		again := b.runAll(stdout)
		if c := again.exitCode(stderr); c != 0 {
			code = c
		}
		if !agree(doc, again, stdout) {
			fmt.Fprintln(stderr, "selfcheck: two runs of the same code disagree beyond the benchmark's own bounds")
			code = 1
		}
	}
	if *outPath != "" {
		data, err := json.MarshalIndent(doc, "", " ")
		if err == nil {
			err = os.WriteFile(*outPath, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
	}
	return code
}

// exitCode reports every wrong output and returns non-zero if any
// workload had one.
func (d *document) exitCode(stderr io.Writer) int {
	code := 0
	for _, r := range d.Workloads {
		for _, msg := range r.Wrong {
			fmt.Fprintf(stderr, "WRONG %s: %s\n", r.Workload, msg)
			code = 1
		}
	}
	return code
}

// runAll is the full run: every workload untraced for the end-to-end
// metrics, then traced for the per-layer ones, with the probes run once.
func (b *bench) runAll(stdout io.Writer) *document {
	doc := &document{Host: thisHost(), Seed: b.seed, Seconds: b.seconds}
	probes := runProbes(b.sz, b.seed)
	for _, w := range workloads {
		res := &workloadResult{Workload: w.name, Metrics: map[string]stat{}}
		base := b.endToEnd(w, res)
		b.perLayer(w, res, base)
		setProbes(res, probes)
		res.finish(metricDefs)
		res.print(stdout, metricDefs)
		doc.Workloads = append(doc.Workloads, res)
	}
	if b.spans != nil {
		doc.Spans = *b.spans
	}
	return doc
}

// driverResult is the one JSON object the driver reads off the last line
// of standard output.
type driverResult struct {
	Correct   bool                    `json:"correct"`
	Attempted int64                   `json:"attempted"`
	Failed    int64                   `json:"failed"`
	Metrics   map[string]driverMetric `json:"metrics"`
}

type driverMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runForDriver runs one workload the way BENCHMARK.json's contract asks:
// untraced for the end_to_end metrics, or traced for the per_layer ones.
func (b *bench) runForDriver(w workload, traced bool, stdout io.Writer) int {
	res := &workloadResult{Workload: w.name, Metrics: map[string]stat{}}
	defs := driverEndToEnd()
	if traced {
		defs = driverPerLayer()
		// A short untraced pass first: the traced reps are compared
		// with it, and the host phases are read off it.
		base := b.reps(w, res, false, nil, b.untilSeconds(min(3, b.sz.minReps), 0))
		res.adopt(base)
		for _, d := range defs {
			if v, ok := base.out.virt[d.name]; ok {
				res.set(d.name, v)
			}
		}
		b.perLayer(w, res, base)
		setProbes(res, runProbes(b.sz, b.seed))
	} else {
		b.endToEnd(w, res)
	}
	res.finish(defs)
	res.print(stdout, defs)
	for _, msg := range res.Wrong {
		fmt.Fprintf(stdout, "WRONG %s: %s\n", res.Workload, msg)
	}

	out := driverResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]driverMetric, len(defs))}
	for _, d := range defs {
		out.Metrics[d.name] = driverMetric{Value: res.Metrics[d.name].Value, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stdout, err)
		return 2
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// print writes every metric by name with its unit.
func (res *workloadResult) print(w io.Writer, defs []metricDef) {
	fmt.Fprintf(w, "# %s: %d reps", res.Workload, res.Reps)
	if res.TracedReps > 0 {
		fmt.Fprintf(w, ", %d traced reps, %d profile samples", res.TracedReps, res.ProfileSamples)
	}
	fmt.Fprintf(w, ", %d attempted, %d failed, virt_digest %s\n", res.Attempted, res.Failed, res.Digest)
	for _, d := range defs {
		s := res.Metrics[d.name]
		fmt.Fprintf(w, "%-16s %-36s %16.6f %-6s", res.Workload, d.name, s.Value, d.unit)
		if n := len(s.Samples); n > 0 {
			q1, q3 := quartiles(s.Samples)
			fmt.Fprintf(w, " n=%d q1=%.6f q3=%.6f", n, q1, q3)
		}
		if s.Raw > 0 {
			fmt.Fprintf(w, " raw=%.6f", s.Raw)
		}
		fmt.Fprintln(w)
	}
}

// printList prints names, units, directions and bounds.
func printList(w io.Writer) {
	fmt.Fprintf(w, "%-36s %-6s %-7s %-7s %s\n", "metric", "unit", "better", "bound", "workloads")
	for _, d := range metricDefs {
		bound := "-"
		if d.endToEnd {
			bound = fmt.Sprintf("%.1f%%", 100*d.bound)
		}
		on := "all"
		if len(d.on) != len(onAll) {
			on = strings.Join(d.on, ",")
		}
		fmt.Fprintf(w, "%-36s %-6s %-7s %-7s %s\n", d.name, d.unit, d.better, bound, on)
	}
	fmt.Fprintln(w)
	for _, wl := range workloads {
		fmt.Fprintf(w, "%-16s %s\n", wl.name, wl.why)
	}
}
