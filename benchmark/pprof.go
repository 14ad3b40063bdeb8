package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profile runtime/pprof writes — a gzip'd
// profile.proto — without leaving the process, and buckets its samples
// by layer. Only the fields attribution needs are decoded:
//
//	Profile:  sample=2  location=4  function=5  string_table=6
//	Sample:   location_id=1 (leaf first)  value=2
//	Location: id=1  line=4 (innermost inlined call first)
//	Line:     function_id=1
//	Function: id=1  name=2 (string_table index)

// stackSample is one decoded profile sample: its call stack as function
// names, leaf first, and its first value (the sample count for a CPU
// profile).
type stackSample struct {
	stack []string
	count int64
}

var errTruncated = errors.New("pprof: truncated message")

// protoBuf walks one protobuf message.
type protoBuf struct{ b []byte }

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflows 64 bits")
}

// next returns the next field: its number, and either its varint value
// (wire type 0) or its bytes (wire type 2). Fixed-width fields are
// skipped over and returned with neither.
func (p *protoBuf) next() (field int, val uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	field = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = p.varint()
	case 1:
		err = p.skip(8)
	case 5:
		err = p.skip(4)
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			break
		}
		if n > uint64(len(p.b)) {
			return 0, 0, nil, errTruncated
		}
		data, p.b = p.b[:n], p.b[n:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
	return field, val, data, err
}

func (p *protoBuf) skip(n int) error {
	if n > len(p.b) {
		return errTruncated
	}
	p.b = p.b[n:]
	return nil
}

// repeatedUint appends a repeated integer field's values: one value when
// the field arrived unpacked, all of them when it arrived packed.
func repeatedUint(dst []uint64, val uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	pb := protoBuf{data}
	for len(pb.b) > 0 {
		v, err := pb.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

// decodeProfile parses a gzip'd profile.proto into stack samples.
func decodeProfile(gz []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("pprof: %w", err)
	}

	type rawSample struct {
		locs  []uint64
		count int64
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	top := protoBuf{raw}
	for len(top.b) > 0 {
		field, _, data, err := top.next()
		if err != nil {
			return nil, err
		}
		msg := protoBuf{data}
		switch field {
		case 2: // sample
			var s rawSample
			var vals []uint64
			for len(msg.b) > 0 {
				f, v, d, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					if s.locs, err = repeatedUint(s.locs, v, d); err != nil {
						return nil, err
					}
				case 2:
					if vals, err = repeatedUint(vals, v, d); err != nil {
						return nil, err
					}
				}
			}
			if len(vals) > 0 {
				s.count = int64(vals[0])
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var funcs []uint64
			for len(msg.b) > 0 {
				f, v, d, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 4:
					line := protoBuf{d}
					for len(line.b) > 0 {
						lf, lv, _, err := line.next()
						if err != nil {
							return nil, err
						}
						if lf == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			locFuncs[id] = funcs
		case 5: // function
			var id, name uint64
			for len(msg.b) > 0 {
				f, v, _, err := msg.next()
				if err != nil {
					return nil, err
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}

	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		ss := stackSample{count: s.count}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ss.stack = append(ss.stack, strs[idx])
				}
			}
		}
		out = append(out, ss)
	}
	return out, nil
}

// Layer buckets. A CPU sample lands in exactly one of cpuLayers, an
// allocation in exactly one of allocLayers, so each family tiles.
const (
	layerSched = "runtime-sched"
	layerGC    = "runtime-gc"
	layerOther = "other"
)

var cpuLayers = []string{
	"sim", "cluster", "servernet", "disk", "npmu", "pmclient", "pmm", "stable",
	"btree", "audit", "locks", "dp2", "adp", "tmf", "ods", "recovery",
	"faultinject", "consistency", "loadgen", "metrics",
	layerSched, layerGC, layerOther,
}

var allocLayers = []string{"sim", "cluster", "servernet", "dp2", "adp", "tmf", "ods", layerOther}

// programPackage names the program package a function belongs to
// ("persistmem/internal/sim.(*Engine).Run" -> "sim"), or "" for a
// function outside the program: the runtime, the standard library and
// the benchmark's own main package. A sub-package counts as its parent,
// and hist, which only backs the metrics package's histograms, counts
// as metrics.
func programPackage(fn string) string {
	rest, ok := strings.CutPrefix(fn, "persistmem/")
	if !ok {
		return ""
	}
	rest = strings.TrimPrefix(rest, "internal/")
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	if rest == "hist" {
		return "metrics"
	}
	return rest
}

// gcFrames are runtime function-name prefixes (after "runtime.") that
// mark a stack as garbage-collector work.
var gcFrames = []string{
	"gc", "bgsweep", "bgscavenge", "scanobject", "scanblock", "scanstack",
	"markroot", "greyobject", "sweepone", "wbBufFlush",
	"(*gcWork)", "(*gcControllerState)", "(*gcCPULimiterState)",
	"(*sweepLocked)", "(*mspan).sweep", "(*mheap).reclaim",
	"(*scavengerState)", "(*pageAlloc).scavenge",
}

func isGCFrame(fn string) bool {
	rest, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return false
	}
	for _, p := range gcFrames {
		if strings.HasPrefix(rest, p) {
			return true
		}
	}
	return false
}

// layerOf buckets one stack (leaf first) into one of known. The
// leaf-most program frame names the layer that asked for the work, even
// when the sample itself fell in the runtime beneath it. A stack with no
// program frame is collector work if any frame belongs to the collector,
// scheduler work if it never leaves the runtime, and "other" otherwise
// (the benchmark's own goroutine, the profile writer).
func layerOf(stack []string, known []string) string {
	for _, fn := range stack {
		pkg := programPackage(fn)
		if pkg == "" {
			continue
		}
		for _, k := range known {
			if k == pkg {
				return pkg
			}
		}
		return layerOther
	}
	allRuntime := len(stack) > 0
	for _, fn := range stack {
		if isGCFrame(fn) {
			return pick(known, layerGC)
		}
		if !strings.HasPrefix(fn, "runtime.") && !strings.HasPrefix(fn, "runtime/internal/") &&
			!strings.HasPrefix(fn, "internal/runtime/") {
			allRuntime = false
		}
	}
	if allRuntime {
		return pick(known, layerSched)
	}
	return layerOther
}

// pick returns want when the family has that bucket, "other" otherwise
// (the allocation family has no runtime buckets).
func pick(known []string, want string) string {
	for _, k := range known {
		if k == want {
			return want
		}
	}
	return layerOther
}

// cpuShares turns decoded CPU samples into percentage shares per layer
// (summing to 100) and the total sample count.
func cpuShares(samples []stackSample) (map[string]float64, int64) {
	counts := map[string]int64{}
	var total int64
	for _, s := range samples {
		counts[layerOf(s.stack, cpuLayers)] += s.count
		total += s.count
	}
	shares := make(map[string]float64, len(cpuLayers))
	for _, l := range cpuLayers {
		if total > 0 {
			shares[l] = 100 * float64(counts[l]) / float64(total)
		} else {
			shares[l] = 0
		}
	}
	return shares, total
}
