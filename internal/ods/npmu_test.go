package ods_test

import (
	"testing"

	"persistmem/internal/ods"
	"persistmem/internal/pmm"
	"persistmem/internal/recovery"
	"persistmem/internal/tmf"
)

// TestNPMUsHoldExactlyTheStoresRegions: each NPMU is as large as the PM
// manager's metadata, the TMF's control blocks and the store's log regions
// together — one a log writer under PM durability, one a database writer
// under PM direct — and every one of those regions opens on it.
func TestNPMUsHoldExactlyTheStoresRegions(t *testing.T) {
	pm := func(edit func(o *ods.Options)) ods.Options {
		o := ods.DefaultOptions()
		o.Durability = ods.PMDurability
		edit(&o)
		return o
	}
	for _, tc := range []struct {
		name    string
		opts    ods.Options
		regions int64 // log regions on each NPMU
	}{
		{"scenario disk", recovery.ScenarioOptions(ods.DiskDurability, 1), 0},
		{"scenario pm", recovery.ScenarioOptions(ods.PMDurability, 1), 4},
		{"scenario pmdirect", recovery.ScenarioOptions(ods.PMDirectDurability, 1), 4},
		{"default pm", pm(func(*ods.Options) {}), 4},
		{"unmirrored pm", pm(func(o *ods.Options) { o.MirrorPM = false }), 4},
		{"16-shard pmdirect", pm(func(o *ods.Options) {
			o.Durability = ods.PMDirectDurability
			o.Files = []ods.FileSpec{{Name: "TRADES", Partitions: 16}}
			o.PMRegionBytes = 8 << 20
		}), 16},
		{"64-stream pm", pm(func(o *ods.Options) { o.AuditStreams = 64 }), 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := ods.Build(tc.opts)
			defer s.Shutdown()
			s.Run(1)
			for _, a := range s.ADPs {
				if err := a.Stats().RegionErr; err != nil {
					t.Errorf("%s: %v", a.RegionName(), err)
				}
			}
			for _, f := range s.Opts.Files {
				for part := 0; part < f.Partitions; part++ {
					d := s.DP2s[s.DP2Name(f.Name, part)]
					if err := d.Stats().RegionErr; err != nil {
						t.Errorf("%s: %v", d.RegionName(), err)
					}
				}
			}
			if err := s.TMF.Stats().RegionErr; err != nil {
				t.Errorf("%s: %v", tmf.TCBRegionName, err)
			}
			if got := int64(len(s.LogRegions())); got != tc.regions {
				t.Errorf("%d log regions, want %d", got, tc.regions)
			}
			if tc.opts.Durability == ods.DiskDurability {
				if s.NPMUPrimary != nil || s.NPMUMirror != nil {
					t.Error("a disk store has NPMUs")
				}
				return
			}
			want := pmm.MetaBytes + tmf.TCBRegionSize + tc.regions*tc.opts.PMRegionBytes
			for _, dev := range []struct {
				name string
				cap  int64
			}{{"primary", s.NPMUPrimary.Capacity()}, {"mirror", s.NPMUMirror.Capacity()}} {
				if dev.cap != want {
					t.Errorf("%s NPMU holds %d bytes, want %d: metadata %d + TCBs %d + %d regions × %d",
						dev.name, dev.cap, want, pmm.MetaBytes, tmf.TCBRegionSize, tc.regions, tc.opts.PMRegionBytes)
				}
			}
			if (s.NPMUMirror == s.NPMUPrimary) == tc.opts.MirrorPM {
				t.Errorf("MirrorPM %v, but the mirror is the primary: %v", tc.opts.MirrorPM, s.NPMUMirror == s.NPMUPrimary)
			}
		})
	}
}
