// Package hist provides a log-linear latency histogram (HDR-style): memory
// that follows the magnitudes recorded, ~3% relative error, arbitrary
// virtual-time magnitudes. The benchmark tools use it to report percentile
// response times without retaining every sample.
package hist

import (
	"fmt"
	"math/bits"

	"persistmem/internal/sim"
)

const (
	// subBuckets linearly subdivide each power-of-two magnitude.
	subBuckets     = 32
	subBucketsLog2 = 5
	// numBuckets is bucketOf's range: one more than the largest int64 maps to.
	numBuckets = (64 - subBucketsLog2) * subBuckets
)

// H is a latency histogram. The zero value is ready to use. It holds
// buckets only for the magnitudes it has seen: counts is a contiguous window
// of whole magnitudes starting at bucket base, widened when a sample falls
// outside it. A copy shares the window with its original until one of them
// widens or is Reset, so copy an H to read it once the original records no
// more — a struct holding one does not compare with ==.
type H struct {
	base   int     // bucket index of counts[0], a multiple of subBuckets
	counts []int64 // a whole number of magnitudes
	count  int64
	sum    sim.Time
	min    sim.Time
	max    sim.Time
}

// bucketOf maps v to its bucket index.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < subBuckets {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v)) // floor(log2 v)
	shift := exp - subBucketsLog2
	sub := int(v>>uint(shift)) - subBuckets // 0..subBuckets-1
	return (exp-subBucketsLog2+1)*subBuckets + sub
}

// lowOf returns the smallest value mapping to bucket i (the reported
// representative, giving a conservative percentile).
func lowOf(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	block := i/subBuckets - 1
	sub := i % subBuckets
	return (int64(subBuckets) + int64(sub)) << uint(block)
}

// widen grows the window to hold buckets lo up to hi, in whole magnitudes.
// A side that grows at least doubles the window, as append does, so a
// distribution spread over k magnitudes costs log k windows, not k.
func (h *H) widen(lo, hi int) {
	lo, hi = lo&^(subBuckets-1), hi|(subBuckets-1)
	n := len(h.counts)
	if n == 0 {
		h.base = lo
	}
	if lo < h.base {
		lo = max(0, min(lo, h.base-n))
	} else {
		lo = h.base
	}
	if end := h.base + n - 1; hi > end {
		hi = min(numBuckets-1, max(hi, end+n))
	} else {
		hi = end
	}
	counts := make([]int64, hi-lo+1)
	copy(counts[h.base-lo:], h.counts)
	h.base, h.counts = lo, counts
}

// Record adds one sample.
func (h *H) Record(v sim.Time) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	b := bucketOf(int64(v))
	if uint(b-h.base) >= uint(len(h.counts)) {
		h.widen(b, b)
	}
	h.counts[b-h.base]++
}

// Count returns the number of samples.
func (h *H) Count() int64 { return h.count }

// Mean returns the exact sample mean.
func (h *H) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return h.sum / sim.Time(h.count)
}

// Min and Max return the exact extremes.
func (h *H) Min() sim.Time { return h.min }

// Max returns the largest recorded sample.
func (h *H) Max() sim.Time { return h.max }

// Percentile returns an approximation (within one bucket) of the p-th
// percentile, p in [0,100].
func (h *H) Percentile(p float64) sim.Time {
	if h.count == 0 {
		return 0
	}
	if p >= 100 {
		return h.max
	}
	target := int64(p / 100 * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen > target {
			v := lowOf(h.base + i)
			if sim.Time(v) < h.min {
				return h.min
			}
			if sim.Time(v) > h.max {
				return h.max
			}
			return sim.Time(v)
		}
	}
	return h.max
}

// Merge folds other into h.
func (h *H) Merge(other *H) {
	if other.count == 0 {
		return
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
	if lo, hi := other.base, other.base+len(other.counts)-1; lo < h.base || hi >= h.base+len(h.counts) {
		h.widen(lo, hi)
	}
	for i, c := range other.counts {
		h.counts[other.base-h.base+i] += c
	}
}

// Reset clears the histogram.
func (h *H) Reset() { *h = H{} }

// Summary renders the standard percentile line.
func (h *H) Summary() string {
	if h.count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.count, h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.max)
}
