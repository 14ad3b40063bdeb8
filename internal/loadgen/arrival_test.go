package loadgen

import (
	"math"
	"testing"

	"persistmem/internal/sim"
)

// TestPoissonOfferedLoadWithinOnePercent pins the acceptance criterion:
// the measured offered load of the Poisson generator is within 1% of
// the configured λ. 200k draws put the sampling error near 0.2%, so the
// margin is real, not luck.
func TestPoissonOfferedLoadWithinOnePercent(t *testing.T) {
	for _, rate := range []float64{100, 1000, 25000} {
		for seed := int64(1); seed <= 3; seed++ {
			eng := sim.NewEngine(seed)
			p := NewPoisson(eng.DeriveRand("arrivals"), rate)
			const n = 200_000
			var total sim.Time
			for i := 0; i < n; i++ {
				total += p.Next()
			}
			measured := float64(n) / total.Seconds()
			if rel := math.Abs(measured-rate) / rate; rel > 0.01 {
				t.Errorf("seed %d rate %.0f: measured %.2f/s, off by %.2f%%",
					seed, rate, measured, 100*rel)
			}
		}
	}
}

func TestPoissonDeterministic(t *testing.T) {
	draw := func() []sim.Time {
		p := NewPoisson(sim.NewEngine(7).DeriveRand("arrivals"), 500)
		out := make([]sim.Time, 100)
		for i := range out {
			out[i] = p.Next()
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPoissonRejectsBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for rate 0")
		}
	}()
	NewPoisson(sim.NewEngine(1).DeriveRand("arrivals"), 0)
}

// TestZipfSkew checks the skew actually skews: the hottest key must be
// drawn far more often than a uniform draw would allow, and draws stay
// inside the keyspace.
func TestZipfSkew(t *testing.T) {
	eng := sim.NewEngine(2)
	const keyspace = 1 << 16
	k := NewZipfKeys(eng.DeriveRand("keys"), 1.2, 1, keyspace)
	const n = 100_000
	counts := map[uint64]int{}
	for i := 0; i < n; i++ {
		key := k.Next()
		if key >= keyspace {
			t.Fatalf("key %d outside keyspace %d", key, keyspace)
		}
		counts[key]++
	}
	uniform := float64(n) / float64(keyspace)
	if hot := float64(counts[0]); hot < 100*uniform {
		t.Errorf("hottest key drawn %v times; uniform would be %.2f — skew too weak", hot, uniform)
	}
}

func TestZipfValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	for name, fn := range map[string]func(){
		"zero-keyspace": func() { NewZipfKeys(eng.DeriveRand("a"), 1.2, 1, 0) },
		"s-below-one":   func() { NewZipfKeys(eng.DeriveRand("b"), 0.5, 1, 10) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
