package bench

import (
	"strings"
	"sync"
	"testing"

	"persistmem/internal/sim"
)

// smokeSaturation is `cmd/loadgen -scale smoke -seed 1`, swept once for
// the tests that read it.
var smokeSaturation = sync.OnceValue(func() Saturation { return Runner{}.Saturation(1, SatSmoke) })

// TestSaturationShapeAtSmokeScale: the smoke-scale sweep already shows
// every required shape — a knee per durability with p99 rising strictly
// past it, PM above disk, and monotone shard/volume scaling.
func TestSaturationShapeAtSmokeScale(t *testing.T) {
	s := smokeSaturation()
	for _, err := range s.CheckShape() {
		t.Error(err)
	}
	want := len(satKneeDurabilities)*len(satMultipliers) + len(satShardCounts) +
		len(satVolumeCounts) + len(satXShardPcts) + len(satStreamCounts)
	if got := len(s.points()); got != want {
		t.Errorf("sweep produced %d cells, want %d", got, want)
	}
}

// TestSaturationCSVGolden pins the CSV header and row count — the
// committed artifact's format contract.
func TestSaturationCSVGolden(t *testing.T) {
	s := smokeSaturation()
	csv := s.CSV()
	lines := strings.Split(strings.TrimRight(csv, "\n"), "\n")
	wantRows := 1 + len(satKneeDurabilities)*len(satMultipliers) + len(satShardCounts) +
		len(satVolumeCounts) + len(satXShardPcts) + len(satStreamCounts)
	if len(lines) != wantRows {
		t.Errorf("CSV has %d lines, want %d", len(lines), wantRows)
	}
	const header = "sweep,durability,shards,volumes,rate,offered,delivered,sojourn_p50_ms,sojourn_p99_ms,service_p99_ms,max_depth,arrivals,commits,aborts,errors,drops,hot_shard_share"
	if lines[0] != header {
		t.Errorf("CSV header changed:\n%s", lines[0])
	}
	for i, ln := range lines[1:] {
		if n := strings.Count(ln, ","); n != strings.Count(header, ",") {
			t.Errorf("row %d has %d columns' worth of commas: %s", i+1, n, ln)
		}
	}
	if !strings.Contains(s.Table(), "scale=smoke") {
		t.Error("table missing scale name")
	}
}

// TestSaturationDeterministicAcrossRunners: identical CSV bytes across
// seeds × parallelism 1/8 — the acceptance contract the committed
// saturation_full.csv rides on.
func TestSaturationDeterministicAcrossRunners(t *testing.T) {
	seeds := []int64{1}
	if !testing.Short() {
		seeds = append(seeds, 7)
	}
	// Determinism does not need the smoke scale's statistics — a short
	// arrival window exercises the same grid at a fraction of the cost.
	scale := SatScale{Name: "det", Window: 150 * sim.Millisecond}
	for _, seed := range seeds {
		ref := Runner{Parallelism: 1}.Saturation(seed, scale).CSV()
		if got := (Runner{Parallelism: 8}).Saturation(seed, scale).CSV(); got != ref {
			t.Errorf("seed %d: parallelism 8 diverged from sequential reference", seed)
		}
	}
}

// TestSaturationScaleParsing covers the -scale flag surface of both
// cmd/loadgen and cmd/figures.
func TestSaturationScaleParsing(t *testing.T) {
	for name, want := range map[string]SatScale{"full": SatFull, "quick": SatQuick, "smoke": SatSmoke} {
		got, err := ParseSatScale(name)
		if err != nil || got != want {
			t.Errorf("ParseSatScale(%q) = %+v, %v", name, got, err)
		}
	}
	if _, err := ParseSatScale("huge"); err == nil {
		t.Error("no error for unknown scale")
	}
	for name, want := range map[string]Scale{"full": Full, "quick": Quick, "smoke": Smoke} {
		got, err := ParseScale(name)
		if err != nil || got != want {
			t.Errorf("ParseScale(%q) = %+v, %v", name, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil || strings.Contains(err.Error(), "\n") {
		t.Errorf("ParseScale(huge) error = %v, want a one-line error", err)
	}
}

// TestSaturationCheckShapeDetectsBreaks feeds CheckShape synthetic
// sweeps with each required property broken and requires a complaint —
// the gate is only worth its run time if it actually fires.
func TestSaturationCheckShapeDetectsBreaks(t *testing.T) {
	// healthy builds a sweep exhibiting every required shape.
	healthy := func() Saturation {
		s := Saturation{Scale: SatSmoke}
		caps := []float64{900, 2500, 2900}
		for di := range satKneeDurabilities {
			row := make([]SatPoint, len(satMultipliers))
			for mi, m := range satMultipliers {
				offered := caps[di] * m
				delivered := offered
				p99 := sim.Time(10 * sim.Millisecond)
				if m > 1 {
					delivered = caps[di]
					p99 = sim.Time(float64(sim.Second) * m)
				}
				row[mi] = SatPoint{Offered: offered, Delivered: delivered, SojournP99: p99}
			}
			s.Knee = append(s.Knee, row)
		}
		for i, sh := range satShardCounts {
			s.Shards = append(s.Shards, SatPoint{Shards: sh,
				Delivered: 1300 + 300*float64(i), HotShardShare: 0.9 / float64(i+1)})
		}
		for i, v := range satVolumeCounts {
			s.Vols = append(s.Vols, SatPoint{Volumes: v, Delivered: 900 + 100*float64(i)})
		}
		for _, pct := range satXShardPcts {
			s.XShard = append(s.XShard, SatPoint{Delivered: 1900,
				Commits: 1000, CrossCommits: int64(10 * pct), Shards: 4})
		}
		for i := range satStreamCounts {
			s.Streams = append(s.Streams, SatPoint{Delivered: 1300 + 50*float64(i)})
		}
		return s
	}
	if errs := healthy().CheckShape(); len(errs) != 0 {
		t.Fatalf("healthy synthetic sweep rejected: %v", errs)
	}

	breaks := map[string]func(*Saturation){
		"never saturates": func(s *Saturation) {
			for mi := range s.Knee[0] {
				s.Knee[0][mi].Delivered = s.Knee[0][mi].Offered
			}
		},
		"saturated at the first cell": func(s *Saturation) {
			s.Knee[0][0].Delivered = s.Knee[0][0].Offered * 0.5
		},
		"p99 flat past the knee": func(s *Saturation) {
			last := len(s.Knee[0]) - 1
			s.Knee[0][last].SojournP99 = s.Knee[0][last-1].SojournP99
		},
		"delivered collapses past the knee": func(s *Saturation) {
			s.Knee[0][len(s.Knee[0])-1].Delivered = 10
		},
		"pm not above disk": func(s *Saturation) {
			for mi := range s.Knee[1] {
				s.Knee[1][mi].Delivered = s.Knee[0][mi].Delivered * 0.5
			}
		},
		"shard scaling regresses": func(s *Saturation) {
			s.Shards[len(s.Shards)-1].Delivered = s.Shards[0].Delivered * 0.5
		},
		"hot shard invisible": func(s *Saturation) {
			s.Shards[len(s.Shards)-1].HotShardShare = 1.0 / 16
		},
		"volume scaling regresses": func(s *Saturation) {
			s.Vols[len(s.Vols)-1].Delivered = s.Vols[0].Delivered * 0.5
		},
		"two-phase commits at mix 0%": func(s *Saturation) {
			s.XShard[0].CrossCommits = 7
		},
		"no two-phase commits at a positive mix": func(s *Saturation) {
			s.XShard[len(s.XShard)-1].CrossCommits = 0
		},
		"xshard cell delivered nothing": func(s *Saturation) {
			s.XShard[1].Commits = 0
		},
		"two-phase commits fall along the mix axis": func(s *Saturation) {
			s.XShard[1].CrossCommits = s.XShard[2].CrossCommits + 1
		},
		"audit-stream scaling collapses": func(s *Saturation) {
			s.Streams[len(s.Streams)-1].Delivered = s.Streams[0].Delivered * 0.5
		},
		"widest audit spread no faster than one-per-CPU": func(s *Saturation) {
			for i := range s.Streams {
				s.Streams[i].Delivered = 1300
			}
		},
	}
	for name, mutate := range breaks {
		s := healthy()
		mutate(&s)
		if errs := s.CheckShape(); len(errs) == 0 {
			t.Errorf("%s: CheckShape saw nothing wrong", name)
		}
	}
}
