package hist

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"persistmem/internal/sim"
)

func TestEmpty(t *testing.T) {
	var h H
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 {
		t.Error("empty histogram not zeroed")
	}
	if h.Summary() != "no samples" {
		t.Errorf("Summary = %q", h.Summary())
	}
}

func TestExactSmallValues(t *testing.T) {
	var h H
	for v := sim.Time(0); v < 32; v++ {
		h.Record(v)
	}
	if h.Count() != 32 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Min() != 0 || h.Max() != 31 {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	// Small values are exact (one per bucket).
	if p := h.Percentile(50); p != 16 {
		t.Errorf("p50 = %v, want 16", p)
	}
}

func TestMeanExact(t *testing.T) {
	var h H
	h.Record(10 * sim.Microsecond)
	h.Record(30 * sim.Microsecond)
	if h.Mean() != 20*sim.Microsecond {
		t.Errorf("Mean = %v", h.Mean())
	}
}

func TestPercentileAccuracy(t *testing.T) {
	// Against a sorted reference, every percentile is within ~3.5%
	// relative error (one sub-bucket).
	rng := rand.New(rand.NewSource(42))
	var h H
	var ref []int64
	for i := 0; i < 20000; i++ {
		v := int64(rng.ExpFloat64() * 5e6) // exponential around 5ms
		ref = append(ref, v)
		h.Record(sim.Time(v))
	}
	sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })
	for _, p := range []float64{10, 50, 90, 95, 99, 99.9} {
		want := ref[int(p/100*float64(len(ref)))]
		got := int64(h.Percentile(p))
		if want == 0 {
			continue
		}
		relErr := float64(got-want) / float64(want)
		if relErr < -0.05 || relErr > 0.05 {
			t.Errorf("p%.1f = %d, reference %d (err %.1f%%)", p, got, want, 100*relErr)
		}
	}
}

func TestPercentileBounds(t *testing.T) {
	var h H
	h.Record(100)
	h.Record(1000000)
	if h.Percentile(100) != 1000000 {
		t.Errorf("p100 = %v", h.Percentile(100))
	}
	if h.Percentile(0) < 100 {
		t.Errorf("p0 = %v below min", h.Percentile(0))
	}
}

func TestMerge(t *testing.T) {
	var a, b H
	for i := 0; i < 100; i++ {
		a.Record(sim.Time(i))
		b.Record(sim.Time(10000 + i))
	}
	a.Merge(&b)
	if a.Count() != 200 {
		t.Errorf("merged Count = %d", a.Count())
	}
	if a.Min() != 0 || a.Max() != 10099 {
		t.Errorf("merged min/max = %v/%v", a.Min(), a.Max())
	}
	var empty H
	a.Merge(&empty) // no-op
	if a.Count() != 200 {
		t.Error("merging empty changed count")
	}
}

func TestReset(t *testing.T) {
	var h H
	h.Record(5)
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 {
		t.Error("Reset incomplete")
	}
}

// Property: percentiles are monotone in p and bounded by [min, max].
func TestPercentileMonotoneProperty(t *testing.T) {
	prop := func(samples []uint32) bool {
		if len(samples) == 0 {
			return true
		}
		var h H
		for _, s := range samples {
			h.Record(sim.Time(s))
		}
		prev := sim.Time(-1)
		for p := 0.0; p <= 100; p += 5 {
			v := h.Percentile(p)
			if v < prev || v < h.Min() || v > h.Max() {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: bucket mapping is order-preserving and lowOf(bucketOf(v)) <= v.
func TestBucketMappingProperty(t *testing.T) {
	prop := func(a, b uint64) bool {
		x, y := int64(a%1<<50), int64(b%1<<50)
		if x > y {
			x, y = y, x
		}
		bx, by := bucketOf(x), bucketOf(y)
		return bx <= by && lowOf(bx) <= x && lowOf(by) <= y
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPercentileEdgeCases pins the boundary contract on empty, single-
// sample and merged histograms: an empty histogram answers zero for any
// percentile, Percentile(0) is never below Min, and Percentile(100) is
// exactly Max — including after a Merge that widens both ends.
func TestPercentileEdgeCases(t *testing.T) {
	var empty H
	for _, p := range []float64{0, 50, 100} {
		if got := empty.Percentile(p); got != 0 {
			t.Errorf("empty p%.0f = %v, want 0", p, got)
		}
	}

	var one H
	one.Record(777)
	if one.Percentile(0) != 777 || one.Percentile(100) != 777 {
		t.Errorf("single-sample percentiles = %v / %v, want 777 / 777",
			one.Percentile(0), one.Percentile(100))
	}

	// Merge into an empty histogram adopts the other's bounds exactly.
	var a, b H
	for i := 1; i <= 1000; i++ {
		b.Record(sim.Time(i))
	}
	a.Merge(&b)
	if a.Percentile(0) != b.Percentile(0) || a.Percentile(100) != b.Percentile(100) {
		t.Errorf("merge-into-empty changed bounds: p0 %v vs %v, p100 %v vs %v",
			a.Percentile(0), b.Percentile(0), a.Percentile(100), b.Percentile(100))
	}

	// A merge that widens both ends: p0 and p100 track the merged
	// min/max, and p50 stays inside [min, max].
	var lo H
	lo.Record(1)
	lo.Record(2)
	a.Merge(&lo)
	var hi H
	hi.Record(5_000_000)
	a.Merge(&hi)
	if a.Percentile(0) != a.Min() || a.Min() != 1 {
		t.Errorf("merged p0 = %v, min = %v, want both 1", a.Percentile(0), a.Min())
	}
	if a.Percentile(100) != a.Max() || a.Max() != 5_000_000 {
		t.Errorf("merged p100 = %v, max = %v, want both 5000000", a.Percentile(100), a.Max())
	}
	if p50 := a.Percentile(50); p50 < a.Min() || p50 > a.Max() {
		t.Errorf("merged p50 = %v outside [%v, %v]", p50, a.Min(), a.Max())
	}

	// Out-of-range p clamps rather than panicking.
	if a.Percentile(-5) < a.Min() || a.Percentile(200) != a.Max() {
		t.Errorf("clamping broken: p(-5)=%v p(200)=%v", a.Percentile(-5), a.Percentile(200))
	}
}
