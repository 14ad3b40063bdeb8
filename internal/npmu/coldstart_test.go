package npmu_test

import (
	"slices"
	"testing"

	"persistmem/internal/cluster"
	"persistmem/internal/npmu"
	"persistmem/internal/pmm"
	"persistmem/internal/sim"
)

// A PM manager cold-starting with one NPMU of its mirrored pair powered off
// recovers the region table from the other: the dead device's metadata
// reads time out, the survivor's decode, and the volume comes up with every
// region it had.
func TestColdStartWithOneDeviceOffRecoversFromTheOther(t *testing.T) {
	for _, off := range []string{"primary", "mirror"} {
		t.Run(off+" off", func(t *testing.T) {
			cfg := cluster.DefaultConfig()
			cfg.CPUs = 3
			cl := cluster.New(sim.NewEngine(1), cfg)
			t.Cleanup(cl.Engine().Shutdown)
			prim := npmu.New(cl, "npmu-a", 4<<20)
			mirr := npmu.New(cl, "npmu-b", 4<<20)
			call := func(req interface{}) pmm.Resp {
				var resp pmm.Resp
				cl.CPU(2).Spawn("client", func(p *cluster.Process) {
					v, err := p.Call("$PM0", 128, req)
					if err != nil {
						t.Errorf("call %T: %v", req, err)
						return
					}
					resp = v.(pmm.Resp)
				})
				cl.Engine().Run()
				return resp
			}

			first := pmm.Start(cl, "$PM0", 0, 1, prim, mirr)
			for _, name := range []string{"log0", "log1"} {
				if r := call(pmm.CreateReq{Name: name, Size: 1 << 20, Owner: "test"}); r.Err != nil {
					t.Fatalf("create %s: %v", name, r.Err)
				}
			}
			want := call(pmm.ListReq{}).Regions
			first.Stop()
			cl.Engine().Run()
			prim.PowerFail()
			mirr.PowerFail()
			dead, live := prim, mirr
			if off == "mirror" {
				dead, live = mirr, prim
			}
			live.Restore()
			if dead.Powered() || !live.Powered() {
				t.Fatalf("powered: %s=%v %s=%v", dead.Name(), dead.Powered(), live.Name(), live.Powered())
			}

			served := live.Endpoint().BytesOut
			m := pmm.Start(cl, "$PM0", 0, 1, prim, mirr)
			got := call(pmm.ListReq{}).Regions
			if len(want) != 2 || !slices.Equal(got, want) || m.Recoveries != 1 {
				t.Errorf("the manager came up with %v after %d recoveries, want %v after 1", got, m.Recoveries, want)
			}
			if live.Endpoint().BytesOut == served {
				t.Errorf("%s served no metadata reads", live.Name())
			}
		})
	}
}
