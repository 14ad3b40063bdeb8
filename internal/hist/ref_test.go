package hist

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"persistmem/internal/sim"
)

// refH is the histogram H replaced, kept as the tests' reference: every
// bucket of every magnitude held from the first sample on, 16 KB a
// histogram. H must answer every question as refH does.
type refH struct {
	counts [63 * subBuckets]int64
	count  int64
	sum    sim.Time
	min    sim.Time
	max    sim.Time
}

func (h *refH) Record(v sim.Time) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.counts[bucketOf(int64(v))]++
}

func (h *refH) Mean() sim.Time {
	if h.count == 0 {
		return 0
	}
	return h.sum / sim.Time(h.count)
}

func (h *refH) Percentile(p float64) sim.Time {
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
			v := lowOf(i)
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

func (h *refH) Merge(other *refH) {
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
	for i, c := range other.counts {
		h.counts[i] += c
	}
}

func (h *refH) Reset() { *h = refH{} }

func (h *refH) Summary() string {
	if h.count == 0 {
		return "no samples"
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.count, h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.max)
}

const hour = 60 * sim.Minute

// pair is an H and the reference fed the same samples.
type pair struct {
	h   H
	ref refH
}

func (p *pair) record(v sim.Time) { p.h.Record(v); p.ref.Record(v) }

func (p *pair) merge(o *pair) { p.h.Merge(&o.h); p.ref.Merge(&o.ref) }

func (p *pair) reset() { p.h.Reset(); p.ref.Reset() }

// sameAnswers compares every read H offers against the reference.
func sameAnswers(t *testing.T, what string, h *H, ref *refH) {
	t.Helper()
	if h.Count() != ref.count || h.Mean() != ref.Mean() || h.Min() != ref.min || h.Max() != ref.max {
		t.Errorf("%s: n/mean/min/max = %d/%v/%v/%v, reference %d/%v/%v/%v", what,
			h.Count(), h.Mean(), h.Min(), h.Max(), ref.count, ref.Mean(), ref.min, ref.max)
	}
	for _, p := range []float64{-5, 0, 0.1, 1, 10, 25, 50, 75, 90, 95, 99, 99.9, 99.99, 100, 200} {
		if got, want := h.Percentile(p), ref.Percentile(p); got != want {
			t.Errorf("%s: p%v = %v, reference %v", what, p, got, want)
		}
	}
	if got, want := h.Summary(), ref.Summary(); got != want {
		t.Errorf("%s: Summary = %q, reference %q", what, got, want)
	}
}

// sample draws a duration whose magnitude is uniform over 1 ns – 1 h, so
// every power of two in between is as likely as any other.
func sample(rng *rand.Rand) sim.Time {
	exp := rng.Intn(42) // 2^41 ns < 1 h < 2^42 ns
	return min(sim.Time(1)<<exp+sim.Time(rng.Int63n(1<<exp)), hour)
}

func TestMatchesFixedArrayReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var a, b pair
		for i := 0; i < 400; i++ {
			switch op := rng.Intn(100); {
			case op < 80:
				a.record(sample(rng))
			case op < 90:
				b.record(sample(rng))
			case op < 95:
				a.merge(&b)
			case op < 97:
				b.merge(&a)
			case op < 98:
				b.reset()
			default:
				a.record(-sim.Time(rng.Intn(5))) // clamps to bucket 0
			}
			if i%40 == 0 {
				sameAnswers(t, fmt.Sprintf("seed %d step %d a", seed, i), &a.h, &a.ref)
				sameAnswers(t, fmt.Sprintf("seed %d step %d b", seed, i), &b.h, &b.ref)
			}
		}
		sameAnswers(t, fmt.Sprintf("seed %d a", seed), &a.h, &a.ref)
		sameAnswers(t, fmt.Sprintf("seed %d b", seed), &b.h, &b.ref)
		a.reset()
		sameAnswers(t, fmt.Sprintf("seed %d a reset", seed), &a.h, &a.ref)
	}
}

// The window grows towards whichever side a sample falls on, in either
// order, and a merge widens both ends at once.
func TestWindowGrowsBothWays(t *testing.T) {
	var p pair
	p.record(20 * sim.Microsecond)
	p.record(3 * sim.Second) // upward
	p.record(40)             // then downward, below everything held
	p.record(hour)
	p.record(0)
	sameAnswers(t, "up then down", &p.h, &p.ref)
	// Every magnitude up to the hour's is held, and at most as many again:
	// a side that grows doubles the window.
	if want := (bucketOf(int64(hour))/subBuckets + 1) * subBuckets; p.h.base != 0 || len(p.h.counts) < want || len(p.h.counts) > 2*want {
		t.Errorf("window = [%d, +%d), want [0, +%d) or up to twice that", p.h.base, len(p.h.counts), want)
	}
	p.record(math.MaxInt64) // the last bucket there is
	sameAnswers(t, "largest sample", &p.h, &p.ref)
	if len(p.h.counts) != numBuckets {
		t.Errorf("window of %d buckets after the largest sample, want all %d", len(p.h.counts), numBuckets)
	}

	var narrow, wide pair
	narrow.record(sim.Millisecond)
	wide.record(100)
	wide.record(sim.Minute)
	narrow.merge(&wide)
	sameAnswers(t, "merge widening both ends", &narrow.h, &narrow.ref)

	var empty pair
	empty.merge(&narrow)
	sameAnswers(t, "merge into an empty H", &empty.h, &empty.ref)
	narrow.merge(&pair{}) // and an empty H merged in changes nothing
	sameAnswers(t, "empty merged in", &narrow.h, &narrow.ref)
}

// An H costs the magnitudes it has seen: nothing before the first sample,
// one magnitude for samples that share one, and log k windows for a spread
// over k magnitudes.
func TestFootprintFollowsSamples(t *testing.T) {
	var h H
	if h.counts != nil {
		t.Fatal("an empty H holds buckets")
	}
	for i := 0; i < 1000; i++ {
		h.Record(15*sim.Microsecond + sim.Time(i))
	}
	if len(h.counts) != subBuckets {
		t.Errorf("1000 samples inside one magnitude hold %d buckets, want %d", len(h.counts), subBuckets)
	}
	if n := testing.AllocsPerRun(100, func() { h.Record(16 * sim.Microsecond) }); n != 0 {
		t.Errorf("a sample inside the window allocates %v times", n)
	}
	n := testing.AllocsPerRun(100, func() {
		var h H
		for v := sim.Time(1); v <= hour; v *= 2 { // 42 magnitudes, smallest first
			h.Record(v)
		}
	})
	if n > 7 {
		t.Errorf("a histogram spread over 42 magnitudes cost %v windows, want at most 7", n)
	}
}

// A copy is read after its original was Reset and refilled, or widened: it
// still answers for the samples it was copied with. (A copy shares its
// window until then, which is why nothing records into one.)
func TestCopyReadAfterOriginalMovedOn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var p pair
	for i := 0; i < 500; i++ {
		p.record(sim.Millisecond + sim.Time(rng.Int63n(int64(sim.Millisecond))))
	}
	snapH, snapRef := p.h, p.ref

	p.reset()
	for i := 0; i < 500; i++ {
		p.record(sample(rng))
	}
	sameAnswers(t, "copy after Reset", &snapH, &snapRef)
	sameAnswers(t, "original after Reset", &p.h, &p.ref)

	// Widening moves the original to a window of its own before it counts
	// the sample, so what it records from then on the copy never sees.
	var q pair
	for i := 0; i < 500; i++ {
		q.record(sim.Millisecond + sim.Time(rng.Int63n(int64(sim.Millisecond))))
	}
	snapH, snapRef = q.h, q.ref
	q.record(hour)
	for i := 0; i < 500; i++ {
		q.record(sim.Millisecond + sim.Time(rng.Int63n(int64(sim.Millisecond))))
	}
	sameAnswers(t, "copy after the original widened", &snapH, &snapRef)
	sameAnswers(t, "original after widening", &q.h, &q.ref)

	// Merged from, never into, then Reset.
	snapH, snapRef = q.h, q.ref
	var other pair
	other.merge(&q)
	q.reset()
	sameAnswers(t, "copy after merge-from and Reset", &snapH, &snapRef)
	sameAnswers(t, "merged", &other.h, &other.ref)
}
