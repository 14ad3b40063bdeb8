package core

import (
	"bytes"
	"strings"
	"testing"

	"persistmem/internal/ods"
)

func TestPMOnlySystemRoundTrip(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	data := []byte("facade write")
	sys.Spawn(2, "app", func(c *Client) {
		if c.Session != nil {
			t.Error("Session present without ODS config")
		}
		if err := c.Volume.Create(c.Process, "r", 1<<20); err != nil {
			t.Fatalf("Create: %v", err)
		}
		r, err := c.Volume.Open(c.Process, "r")
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if err := r.Write(c.Process, 0, data); err != nil {
			t.Fatalf("Write: %v", err)
		}
		buf := make([]byte, len(data))
		if err := r.Read(c.Process, 0, buf); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if !bytes.Equal(buf, data) {
			t.Errorf("read %q", buf)
		}
	})
	sys.Run()
	sys.Eng.Shutdown()
}

func TestPowerFailRebootRecoversRegions(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	sys.Spawn(2, "writer", func(c *Client) {
		c.Volume.Create(c.Process, "keep", 4096)
		r, _ := c.Volume.Open(c.Process, "keep")
		r.Write(c.Process, 0, []byte("still here"))
	})
	sys.Run()
	sys.PowerFail()
	sys.Reboot()
	sys.Spawn(2, "reader", func(c *Client) {
		r, err := c.Volume.Open(c.Process, "keep")
		if err != nil {
			t.Fatalf("Open after reboot: %v", err)
		}
		buf := make([]byte, 10)
		if err := r.Read(c.Process, 0, buf); err != nil {
			t.Fatalf("Read after reboot: %v", err)
		}
		if string(buf) != "still here" {
			t.Errorf("recovered %q", buf)
		}
	})
	sys.Run()
	sys.Eng.Shutdown()
}

func TestPMPSystemLosesDataOnPowerFail(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PM.UsePMP = true
	sys := NewSystem(cfg)
	sys.Spawn(2, "writer", func(c *Client) {
		c.Volume.Create(c.Process, "gone", 4096)
		r, _ := c.Volume.Open(c.Process, "gone")
		r.Write(c.Process, 0, []byte("volatile"))
	})
	sys.Run()
	sys.PowerFail()
	sys.Reboot()
	sys.Spawn(2, "reader", func(c *Client) {
		regions, err := c.Volume.List(c.Process)
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		if len(regions) != 0 {
			t.Errorf("PMP system recovered %d regions, want 0", len(regions))
		}
	})
	sys.Run()
	sys.Eng.Shutdown()
}

func TestSystemWithODS(t *testing.T) {
	cfg := DefaultConfig()
	odsOpts := ods.DefaultOptions()
	odsOpts.RetainData = true
	odsOpts.NPMUBytes = 0 // overridden by PM.DeviceBytes
	cfg.ODS = &odsOpts
	sys := NewSystem(cfg)
	sys.Spawn(3, "app", func(c *Client) {
		txn, err := c.Session.Begin()
		if err != nil {
			t.Fatalf("Begin: %v", err)
		}
		txn.InsertAsync("FILE0", 1, []byte("row"))
		if err := txn.Commit(); err != nil {
			t.Fatalf("Commit: %v", err)
		}
		body, err := c.Session.ReadBrowse("FILE0", 1)
		if err != nil || string(body) != "row" {
			t.Errorf("read %q, %v", body, err)
		}
		// PM handles also work alongside the ODS.
		if c.Volume == nil {
			t.Error("no PM volume handle")
		}
	})
	sys.Run()
	if sys.Store.Opts.Durability != ods.PMDurability {
		t.Error("ODS not defaulted to PM durability")
	}
	sys.Eng.Shutdown()
}

func TestDiskOnlySystem(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PM.Disabled = true
	odsOpts := ods.DefaultOptions()
	cfg.ODS = &odsOpts
	sys := NewSystem(cfg)
	if sys.PMM != nil || sys.Primary != nil {
		t.Error("PM devices created despite Disabled")
	}
	if sys.Store.Opts.Durability != ods.DiskDurability {
		t.Error("disk-only system not using disk durability")
	}
	sys.Spawn(3, "app", func(c *Client) {
		if c.Volume != nil {
			t.Error("PM volume handle on disk-only system")
		}
		txn, _ := c.Session.Begin()
		txn.InsertAsync("FILE0", 1, []byte("x"))
		if err := txn.Commit(); err != nil {
			t.Errorf("Commit: %v", err)
		}
	})
	sys.Run()
	sys.Eng.Shutdown()
}

func TestDescribe(t *testing.T) {
	sys := NewSystem(DefaultConfig())
	d := sys.Describe()
	for _, want := range []string{"4 CPUs", "hardware NPMU", "mirrored pair", "no ODS"} {
		if !strings.Contains(d, want) {
			t.Errorf("Describe() = %q missing %q", d, want)
		}
	}
	cfg := DefaultConfig()
	cfg.PM.Unmirrored = true
	cfg.PM.UsePMP = true
	d2 := NewSystem(cfg).Describe()
	for _, want := range []string{"PMP prototype", "single device"} {
		if !strings.Contains(d2, want) {
			t.Errorf("Describe() = %q missing %q", d2, want)
		}
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("1-CPU config did not panic")
		}
	}()
	NewSystem(Config{CPUs: 1})
}
