package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values when len(xs) is even). Rep counts are odd, so in practice it is
// always a value that was measured.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// that is the rule the paired-run recipe and the driver use for spread.
// Fewer than two values have no spread: both quartiles are the value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound is held against.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// percentile returns the exact p-th percentile (nearest rank) of an
// ascending sample: the smallest value with at least p% of the sample at
// or below it.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(n)/100 - 1e-9)) // 99.9% of 1000 is 999, not 999.0000000000001
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

// minTailSamples is how many samples must lie beyond a percentile before
// the benchmark reports it.
const minTailSamples = 10

// tailSupported reports whether a sample of n values has at least
// minTailSamples values beyond its p-th percentile. The benchmark's
// tail metrics are all p99, so a full-size cell needs n >= 1000; a
// higher percentile is never reported because no cell is large enough
// to put ten samples beyond it.
func tailSupported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= minTailSamples-1e-9
}

// rung is one offered-rate step of the open-loop ladder, in plain
// numbers (virtual nanoseconds).
type rung struct {
	rate      float64 // configured offered load, tx per virtual second
	p99Ns     int64   // sojourn p99
	arrivals  int64
	commits   int64
	elapsedNs int64 // arrival window plus backlog drain
	windowNs  int64
}

// sojournLimitNs is the latency limit virt_max_rate_tps is held to.
const sojournLimitNs = 25_000_000

// sustains reports whether the store kept up at this rung: every arrival
// committed, the tail met the limit, and the backlog did not grow (the
// drain ended within 1% of the arrival window).
func (r rung) sustains() bool {
	return r.commits == r.arrivals &&
		r.p99Ns <= sojournLimitNs &&
		float64(r.elapsedNs) <= 1.01*float64(r.windowNs)
}

// maxRate climbs the ladder (rungs in ascending rate order) and returns
// the last rate reached before the first rung the store did not
// sustain; 0 when even the lowest rung failed. Stopping at the first
// failure keeps a lucky rung above the knee from being reported.
func maxRate(ladder []rung) float64 {
	best := 0.0
	for _, r := range ladder {
		if !r.sustains() {
			break
		}
		best = r.rate
	}
	return best
}
