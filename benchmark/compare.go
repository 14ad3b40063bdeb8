package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// verdict is -compare's word for one (metric, workload) pairing.
type verdict string

const (
	better     verdict = "better"
	same       verdict = "same"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// worsening is how much worse b reads than a, as a share of a, in the
// metric's own direction: positive is worse, negative is better.
func worsening(d metricDef, a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		a = b // a metric that left zero moved by all of itself
	}
	rel := (b - a) / a
	if d.better == "higher" {
		rel = -rel
	}
	return rel
}

// judge applies a metric's bound to two measurements of it. A change
// within the bound is "same" and one beyond it "better" or "worse" —
// unless the samples' own spread is wider than the bound, in which case
// the bound cannot resolve the change and only a clean separation (every
// sample of one side beyond every sample of the other) still counts.
func judge(d metricDef, a, b stat) verdict {
	rel := worsening(d, a.Value, b.Value)
	noise := max(spread(a.Samples), spread(b.Samples))
	if noise > d.bound {
		switch {
		case separated(d, a.Samples, b.Samples):
			return better
		case separated(d, b.Samples, a.Samples):
			return worse
		}
		return unresolved
	}
	switch {
	case rel > d.bound:
		return worse
	case rel < -d.bound:
		return better
	}
	return same
}

// separated reports whether every sample of hi reads better than every
// sample of lo.
func separated(d metricDef, lo, hi []float64) bool {
	if len(lo) == 0 || len(hi) == 0 {
		return false
	}
	for _, h := range hi {
		for _, l := range lo {
			if worsening(d, l, h) >= 0 {
				return false
			}
		}
	}
	return true
}

// compareDocs prints one row per (metric, workload) and returns how many
// pairings got worse and how many virtual results differ at all.
func compareDocs(a, b *document, w io.Writer) (regressions, virtualDiffs int) {
	fmt.Fprintf(w, "%-16s %-36s %16s %16s %9s  %s\n", "workload", "metric", "parent", "change", "change%", "verdict")
	for _, ra := range a.Workloads {
		var rb *workloadResult
		for _, r := range b.Workloads {
			if r.Workload == ra.Workload {
				rb = r
			}
		}
		if rb == nil {
			continue
		}
		for _, d := range metricDefs {
			if !d.endToEnd || !d.definedOn(ra.Workload) {
				continue
			}
			sa, sb := ra.Metrics[d.name], rb.Metrics[d.name]
			v := judge(d, sa, sb)
			if v == worse {
				regressions++
			}
			if d.virtual() && sa.Value != sb.Value {
				virtualDiffs++
			}
			fmt.Fprintf(w, "%-16s %-36s %16.6f %16.6f %+8.2f%%  %s\n",
				ra.Workload, d.name, sa.Value, sb.Value, 100*worsening(d, sa.Value, sb.Value), v)
		}
		if ra.Digest != rb.Digest && a.Seed == b.Seed {
			virtualDiffs++
			fmt.Fprintf(w, "%-16s %-36s %16s %16s %9s  differs\n", ra.Workload, "virt_digest", ra.Digest, rb.Digest, "")
		}
	}
	return regressions, virtualDiffs
}

// compareFiles is -compare: exit 1 when any pairing got worse.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	var docs [2]document
	for i, p := range []string{pathA, pathB} {
		data, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(data, &docs[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", p, err)
			return 2
		}
	}
	if docs[0].Seed != docs[1].Seed {
		fmt.Fprintf(stderr, "note: seeds differ (%d, %d), so virtual metrics differ by input and not by code\n",
			docs[0].Seed, docs[1].Seed)
	}
	regressions, _ := compareDocs(&docs[0], &docs[1], stdout)
	if regressions > 0 {
		fmt.Fprintf(stderr, "%d pairing(s) got worse by more than their bound\n", regressions)
		return 1
	}
	return 0
}

// agree is -selfcheck's rule for two runs of the same code at one seed:
// no host metric worse beyond its bound, and every virtual result and
// digest identical.
func agree(a, b *document, w io.Writer) bool {
	regressions, virtualDiffs := compareDocs(a, b, w)
	return regressions == 0 && virtualDiffs == 0
}
