// Package core is the library's facade: it assembles the paper's system —
// a simulated NonStop-style cluster with network persistent memory — and
// exposes the two things a user programs against:
//
//   - persistent memory itself: PM volumes and regions accessed with
//     synchronous, byte-grained, mirrored reads and writes (§3), and
//   - an online data store whose log writers and transaction monitor use
//     that persistent memory (§4), with a transactional session API.
//
// Everything runs under a deterministic discrete-event simulation: Run
// advances virtual time until the work given to the system completes.
// Wall-clock results are therefore reproducible bit-for-bit for a given
// Config.Seed.
package core

import (
	"fmt"

	"persistmem/internal/cluster"
	"persistmem/internal/npmu"
	"persistmem/internal/ods"
	"persistmem/internal/pmclient"
	"persistmem/internal/pmm"
	"persistmem/internal/sim"
)

// Config describes a System.
type Config struct {
	// Seed drives all randomness; equal seeds give equal runs.
	Seed int64
	// CPUs is the processor count (minimum 2, for process pairs).
	CPUs int

	// PM configures the persistent-memory deployment. If Disabled is set
	// no NPMUs or PMM are created (a disk-only machine).
	PM PMConfig

	// ODS optionally configures an online data store on the system. Leave
	// nil for a PM-only system. The ODS durability mode defaults to PM
	// audit when PM is enabled, disk audit otherwise.
	ODS *ods.Options
}

// PMConfig shapes the persistent-memory deployment.
type PMConfig struct {
	// Disabled omits persistent memory entirely.
	Disabled bool
	// DeviceBytes is each NPMU's capacity (default 256 MB).
	DeviceBytes int64
	// Unmirrored runs a single NPMU instead of a mirrored pair.
	Unmirrored bool
	// UsePMP substitutes the paper's process-based prototype device
	// (volatile, slightly slower) for hardware NPMUs.
	UsePMP bool
	// Volatile NPMUs lose contents on power failure even in hardware
	// mode (for what-if experiments); implied by UsePMP.
	Volatile bool
}

// DefaultConfig returns a 4-CPU system with a mirrored hardware PM volume
// and no ODS.
func DefaultConfig() Config {
	return Config{Seed: 1, CPUs: 4}
}

// System is a running simulated machine.
type System struct {
	Eng     *sim.Engine
	Cluster *cluster.Cluster

	// PMM manages the PM volume (nil when PM is disabled).
	PMM *pmm.Manager
	// Primary and Mirror are the NPMU devices (Mirror == Primary when
	// unmirrored; both nil when PM is disabled).
	Primary, Mirror *npmu.Device

	// Store is the online data store (nil unless configured).
	Store *ods.Store

	cfg Config
}

// NewSystem builds and starts a system.
func NewSystem(cfg Config) *System {
	if cfg.CPUs == 0 {
		cfg.CPUs = 4
	}
	if cfg.CPUs < 2 {
		panic("core: need at least 2 CPUs for process pairs")
	}
	if cfg.PM.DeviceBytes == 0 {
		cfg.PM.DeviceBytes = 256 << 20
	}

	sys := &System{cfg: cfg}

	if cfg.ODS != nil {
		opts := *cfg.ODS
		opts.Seed = cfg.Seed
		opts.CPUs = cfg.CPUs
		if !cfg.PM.Disabled {
			opts.Durability = ods.PMDurability
			opts.NPMUBytes = cfg.PM.DeviceBytes
			opts.MirrorPM = !cfg.PM.Unmirrored
			opts.UsePMP = cfg.PM.UsePMP
		} else {
			opts.Durability = ods.DiskDurability
		}
		sys.Store = ods.Build(opts)
		sys.Eng = sys.Store.Eng
		sys.Cluster = sys.Store.Cl
		sys.PMM = sys.Store.PMM
		sys.Primary = sys.Store.NPMUPrimary
		sys.Mirror = sys.Store.NPMUMirror
		return sys
	}

	sys.Eng = sim.NewEngine(cfg.Seed)
	ccfg := cluster.DefaultConfig()
	ccfg.CPUs = cfg.CPUs
	sys.Cluster = cluster.New(sys.Eng, ccfg)
	if !cfg.PM.Disabled {
		mk := func(name string) *npmu.Device {
			if cfg.PM.UsePMP {
				return npmu.NewPMP(sys.Cluster, name, cfg.PM.DeviceBytes)
			}
			return npmu.New(sys.Cluster, name, cfg.PM.DeviceBytes)
		}
		sys.Primary = mk("npmu-a")
		sys.Mirror = sys.Primary
		if !cfg.PM.Unmirrored {
			sys.Mirror = mk("npmu-b")
		}
		sys.PMM = pmm.Start(sys.Cluster, ods.PMVolumeName, 0, 1%cfg.CPUs, sys.Primary, sys.Mirror)
	}
	return sys
}

// Client is the execution context handed to Spawn bodies: a process on a
// CPU with handles to the PM volume and (when configured) an ODS session.
type Client struct {
	*cluster.Process
	sys *System
	// Volume is the PM volume handle (nil when PM is disabled).
	Volume *pmclient.Volume
	// Session is the data-store session (nil when no ODS is configured).
	Session *ods.Session
}

// System returns the owning system.
func (c *Client) System() *System { return c.sys }

// Spawn starts body as a client process on the given CPU. The body runs
// in virtual time once Run is called.
func (s *System) Spawn(cpu int, name string, body func(c *Client)) {
	s.Cluster.CPU(cpu).Spawn(name, func(p *cluster.Process) {
		c := &Client{Process: p, sys: s}
		if s.PMM != nil {
			c.Volume = pmclient.Attach(s.Cluster, s.PMM.Name())
		}
		if s.Store != nil {
			c.Session = s.Store.NewSession(p)
		}
		body(c)
	})
}

// Run advances virtual time until the system is idle (every spawned
// client has finished and no timer is pending), returning the final
// virtual time.
func (s *System) Run() sim.Time { return s.Eng.Run() }

// PowerFail simulates pulling the plug on the whole machine: all CPUs
// halt (volatile state is lost) and all PM devices power-cycle. Hardware
// NPMUs keep their contents; PMP prototypes lose them.
func (s *System) PowerFail() {
	s.Cluster.PowerFail()
	if s.Primary != nil {
		s.Primary.PowerFail()
		if s.Mirror != s.Primary {
			s.Mirror.PowerFail()
		}
	}
	s.Eng.RunUntil(s.Eng.Now()) // drain the failure fallout
}

// Reboot restores power and restarts the PM manager, which recovers the
// volume's region table from durable NPMU metadata. Application services
// (including any ODS) must be restarted by the caller — exactly as after
// a real outage.
func (s *System) Reboot() {
	if s.Primary != nil {
		s.Primary.Restore()
		if s.Mirror != s.Primary {
			s.Mirror.Restore()
		}
	}
	s.Cluster.RestorePower()
	if s.PMM != nil {
		s.PMM = pmm.Start(s.Cluster, ods.PMVolumeName, 0, 1%s.cfg.CPUs, s.Primary, s.Mirror)
	}
}

// Describe returns a one-paragraph summary of the system configuration,
// for example banners.
func (s *System) Describe() string {
	pm := "no persistent memory"
	if s.PMM != nil {
		kind := "hardware NPMU"
		if s.Primary.Volatile() {
			kind = "PMP prototype"
		}
		mir := "mirrored pair"
		if s.Mirror == s.Primary {
			mir = "single device"
		}
		pm = fmt.Sprintf("%s %s (%d MB each)", kind, mir, s.Primary.Capacity()>>20)
	}
	odsDesc := "no ODS"
	if s.Store != nil {
		odsDesc = fmt.Sprintf("ODS with %d files over %d data volumes, %s audit",
			len(s.Store.Opts.Files), len(s.Store.DataVolumes), s.Store.Opts.Durability)
	}
	return fmt.Sprintf("%d CPUs; %s; %s; seed %d", s.cfg.CPUs, pm, odsDesc, s.cfg.Seed)
}
