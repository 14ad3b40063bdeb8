// Package faultinject is a deterministic, seed-driven fault-injection
// subsystem for the simulated data store. A Plan lists fault actions —
// CPU failures, fabric path outages, NPMU power loss, disk volume
// failures, process kills — each triggered at an absolute virtual time
// or after the Nth durable commit. Because every trigger resolves to an
// engine callback, a plan perturbs the simulation's schedule only at
// its firing points: the same seed and plan replay byte-identically,
// and an empty plan leaves the run untouched.
//
// The paper's availability argument (§1.3, §5) rests on exactly these
// events being survivable: process pairs ride out CPU halts, mirrored
// NPMUs ride out device loss, the dual-path fabric rides out a path
// outage. The injector also arms the matching invariant: whenever a
// fault kills a protected primary, the backup must have re-registered
// the service name within the cluster's TakeoverDelay.
package faultinject

import (
	"fmt"
	"math/rand"
	"sort"

	"persistmem/internal/audit"
	"persistmem/internal/cluster"
	"persistmem/internal/ods"
	"persistmem/internal/sim"
	"persistmem/internal/tmf"
)

// Kind enumerates the fault actions a Plan can schedule.
type Kind int

// Fault kinds. Every *Fail kind has a matching restore so chaos plans
// can leave the store fully powered at the end of the fault window.
const (
	// CPUFail halts CPU Target: its processes die in spawn order, its
	// fabric endpoint stops responding, its registrations drop.
	CPUFail Kind = iota
	// CPURestore reloads CPU Target (empty, with a fresh dispatcher).
	CPURestore
	// PathFail takes fabric path Target (0 = X, 1 = Y) down.
	PathFail
	// PathRestore brings fabric path Target back.
	PathRestore
	// EndpointFail detaches NPMU device Target (0 = primary, 1 = mirror)
	// from the fabric — contents intact, device unreachable.
	EndpointFail
	// EndpointRecover re-attaches NPMU device Target.
	EndpointRecover
	// NPMUPowerFail power-fails NPMU device Target: volatile state and
	// address translations are lost; stable contents survive.
	NPMUPowerFail
	// NPMURestore restores power to NPMU device Target. Its address
	// translation table stays empty until a PM manager reprograms it, so
	// writes keep landing on the surviving mirror only.
	NPMURestore
	// DataVolumeFail fails data disk volume Target.
	DataVolumeFail
	// DataVolumeRestore restores data disk volume Target.
	DataVolumeRestore
	// AuditVolumeFail fails audit disk volume Target (disk durability).
	AuditVolumeFail
	// AuditVolumeRestore restores audit disk volume Target.
	AuditVolumeRestore
	// ProcessKill kills the primary of the service pair named Service (a
	// software fault: the CPU stays up, the backup takes over).
	ProcessKill
)

// String names the kind for firing logs and matrix tables.
func (k Kind) String() string {
	switch k {
	case CPUFail:
		return "cpufail"
	case CPURestore:
		return "cpurestore"
	case PathFail:
		return "pathfail"
	case PathRestore:
		return "pathrestore"
	case EndpointFail:
		return "epfail"
	case EndpointRecover:
		return "eprecover"
	case NPMUPowerFail:
		return "npmufail"
	case NPMURestore:
		return "npmurestore"
	case DataVolumeFail:
		return "datavolfail"
	case DataVolumeRestore:
		return "datavolrestore"
	case AuditVolumeFail:
		return "auditvolfail"
	case AuditVolumeRestore:
		return "auditvolrestore"
	case ProcessKill:
		return "prockill"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Trigger says when a fault fires. Exactly one of the three forms is
// used: AtPhase != 0 means "when a cross-shard commit reaches this
// two-phase protocol phase" (armed through the store's phase hook);
// AfterCommits > 0 means "Delay after the AfterCommits-th commit
// becomes durable" (armed through the store's commit hook); otherwise
// the fault fires at absolute virtual time At + Delay.
type Trigger struct {
	// At is an absolute virtual time (time-triggered faults).
	At sim.Time
	// AfterCommits fires the fault once the store's total durable commit
	// count reaches this value (event-triggered faults).
	AfterCommits int64
	// AtPhase fires the fault when a cross-shard two-phase commit
	// reports this protocol phase — the lever for landing a kill inside
	// the prepare window, before outcome durability, or mid-apply.
	AtPhase tmf.CommitPhase
	// AtSeq selects which two-phase commit AtPhase watches (1-based
	// sequence of cross-shard commits); zero means the first.
	AtSeq int64
	// Delay postpones the firing past its trigger point — how a restore
	// action is paired with the fail that shares its trigger.
	Delay sim.Time
}

// Fault is one action of a plan.
type Fault struct {
	Kind Kind
	// Target selects the victim: CPU index for CPU*, fabric path for
	// Path*, NPMU device (0 = primary, 1 = mirror) for Endpoint* and
	// NPMU*, volume index for *Volume*.
	Target int
	// Service names the pair for ProcessKill (e.g. "$TMF", "$ADP0").
	Service string
	When    Trigger
}

func (f Fault) String() string {
	desc := fmt.Sprintf("%v(%d)", f.Kind, f.Target)
	if f.Kind == ProcessKill {
		desc = fmt.Sprintf("%v(%s)", f.Kind, f.Service)
	}
	if f.When.AtPhase != 0 {
		desc += "@" + f.When.AtPhase.String()
	}
	return desc
}

// Plan is a deterministic fault schedule.
type Plan []Fault

// Firing records one applied fault.
type Firing struct {
	Fault Fault
	At    sim.Time
}

func (fi Firing) String() string { return fmt.Sprintf("%v@%v", fi.Fault, fi.At) }

// takeoverCheckSlack is how long past TakeoverDelay the invariant check
// waits before declaring a missed takeover — promotion happens exactly
// at the delay, and re-registration is immediate, so a small epsilon
// suffices.
const takeoverCheckSlack = 10 * sim.Millisecond

// Injector applies a Plan to a built store and watches the takeover
// invariant. Construct with Arm before Engine.Run.
type Injector struct {
	s        *ods.Store
	disarmed bool
	firings  []Firing
	pending  []Fault // commit-triggered faults not yet scheduled
	phased   []Fault // phase-triggered faults not yet scheduled
	pairs    []pairRef

	// TakeoverViolations describes every service pair whose backup did
	// not re-register within the takeover bound after a primary-killing
	// fault although its host stayed up. Empty after a clean run.
	TakeoverViolations []string
	// PairsLost names, in check order, every service pair that lost its
	// primary to a fault and then its backup's CPU before the takeover was
	// due: both members gone, an outage of that service rather than a
	// broken takeover. What must still hold for such a run is what holds
	// for every run — no acknowledged commit lost after recovery.
	PairsLost []string
}

// pairRef pairs a service name with its process-pair handle, in a
// deterministic order (the store holds DP2s in a map).
type pairRef struct {
	name string
	pair *cluster.Pair
}

// Arm schedules plan against s. An empty plan arms nothing — the run's
// schedule is identical to an uninjected one. Time-triggered faults are
// engine callbacks; commit-triggered faults hang off the store's commit
// hook and phase-triggered faults off its two-phase phase hook, so Arm
// takes sole ownership of s.SetCommitHook and s.SetPhaseHook.
func Arm(s *ods.Store, plan Plan) *Injector {
	inj := &Injector{s: s, pairs: collectPairs(s)}
	for _, f := range plan {
		if f.When.AtPhase != 0 {
			inj.phased = append(inj.phased, f)
			continue
		}
		if f.When.AfterCommits > 0 {
			inj.pending = append(inj.pending, f)
			continue
		}
		f := f
		s.Eng.Schedule(f.When.At+f.When.Delay, func() { inj.fire(f) })
	}
	if len(inj.phased) > 0 {
		s.SetPhaseHook(func(phase tmf.CommitPhase, txn audit.TxnID, seq int64) {
			eng := s.Eng
			kept := inj.phased[:0]
			for _, f := range inj.phased {
				want := f.When.AtSeq
				if want == 0 {
					want = 1
				}
				if f.When.AtPhase == phase && want == seq {
					f := f
					eng.Schedule(eng.Now()+f.When.Delay, func() { inj.fire(f) })
				} else {
					kept = append(kept, f)
				}
			}
			inj.phased = kept
		})
	}
	if len(inj.pending) > 0 {
		s.SetCommitHook(func(total int64) {
			eng := s.Eng
			kept := inj.pending[:0]
			for _, f := range inj.pending {
				if f.When.AfterCommits <= total {
					f := f
					eng.Schedule(eng.Now()+f.When.Delay, func() { inj.fire(f) })
				} else {
					kept = append(kept, f)
				}
			}
			inj.pending = kept
		})
	}
	return inj
}

// collectPairs gathers every service pair of the store, sorted by name.
func collectPairs(s *ods.Store) []pairRef {
	var refs []pairRef
	refs = append(refs, pairRef{s.TMF.Name(), s.TMF.Pair()})
	if s.PMM != nil {
		refs = append(refs, pairRef{ods.PMVolumeName, s.PMM.Pair()})
	}
	for _, a := range s.ADPs {
		refs = append(refs, pairRef{a.Name(), a.Pair()})
	}
	//simlint:ordered -- collected into a slice and sorted below
	for name, d := range s.DP2s {
		refs = append(refs, pairRef{name, d.Pair()})
	}
	sort.Slice(refs, func(i, j int) bool { return refs[i].name < refs[j].name })
	return refs
}

// Disarm cancels all future firings and invariant checks. The crash
// scenario's crasher calls it right before power-failing the node, so
// late-plan restores and takeover checks don't fire into the wreck.
func (inj *Injector) Disarm() { inj.disarmed = true }

// Firings returns the log of applied faults in firing order.
func (inj *Injector) Firings() []Firing { return inj.firings }

// fire applies one fault. It always runs in engine-callback context
// (between process steps), so it may kill processes — including ones on
// the CPU the triggering commit ran on — without unwinding anybody
// mid-operation.
func (inj *Injector) fire(f Fault) {
	if inj.disarmed {
		return
	}
	s := inj.s
	inj.firings = append(inj.firings, Firing{Fault: f, At: s.Eng.Now()})
	switch f.Kind {
	case CPUFail:
		if s.Cl.CPU(f.Target).Up() {
			// Arm the takeover invariant before the kill: the expected
			// backup location must be read while the pair is intact.
			inj.expectTakeovers(f.Target)
			s.Cl.CPU(f.Target).Fail()
		}
	case CPURestore:
		s.Cl.CPU(f.Target).Restore()
	case PathFail:
		s.Cl.Fabric().FailPath(f.Target)
	case PathRestore:
		s.Cl.Fabric().RestorePath(f.Target)
	case EndpointFail:
		inj.device(f.Target).Fail()
	case EndpointRecover:
		inj.device(f.Target).Recover()
	case NPMUPowerFail:
		inj.device(f.Target).PowerFail()
	case NPMURestore:
		inj.device(f.Target).Restore()
	case DataVolumeFail:
		s.DataVolumes[f.Target].Fail()
	case DataVolumeRestore:
		s.DataVolumes[f.Target].Restore()
	case AuditVolumeFail:
		s.AuditVolumes[f.Target].Fail()
	case AuditVolumeRestore:
		s.AuditVolumes[f.Target].Restore()
	case ProcessKill:
		for _, pr := range inj.pairs {
			if pr.name == f.Service {
				inj.expectTakeoverOf(pr)
				pr.pair.KillPrimary()
			}
		}
	default:
		panic(fmt.Sprintf("faultinject: unknown fault kind %d", int(f.Kind)))
	}
}

// device resolves an NPMU target index.
func (inj *Injector) device(t int) interface {
	Fail()
	Recover()
	PowerFail()
	Restore()
} {
	s := inj.s
	if s.NPMUPrimary == nil {
		panic("faultinject: NPMU fault against a store with no PM devices")
	}
	if t == 0 {
		return s.NPMUPrimary
	}
	return s.NPMUMirror
}

// expectTakeovers arms the takeover invariant for every pair whose
// primary runs on the about-to-fail CPU.
func (inj *Injector) expectTakeovers(cpu int) {
	for _, pr := range inj.pairs {
		if pr.pair.PrimaryCPU() == cpu {
			inj.expectTakeoverOf(pr)
		}
	}
}

// expectTakeoverOf checks, TakeoverDelay plus a small slack after the
// fault, that the pair's backup took over. Pairs that are already down
// or unprotected are skipped at arm time, and a backup whose own CPU
// halted at any time between the fault and the check — down still, or
// restored since: the backup process died with it either way — is recorded
// as a lost pair, not a violation. Both are double faults the paper does
// not claim to survive; their outcomes are still held to the scenario's
// ground-truth invariants. What remains is the §1.3 claim itself: a
// protected pair whose backup host stayed up must complete its takeover
// within the bound — a backup lost any other way is a violation.
func (inj *Injector) expectTakeoverOf(pr pairRef) {
	p := pr.pair
	if !p.Up() || !p.Protected() {
		return
	}
	backCPU := p.BackupCPU()
	host := inj.s.Cl.CPU(backCPU)
	if !host.Up() {
		return
	}
	eng := inj.s.Eng
	bound := cluster.TakeoverDelay
	at := eng.Now()
	armTakeovers, armFailures := p.Takeovers, host.Failures
	name := pr.name
	eng.Schedule(at+bound+takeoverCheckSlack, func() {
		switch {
		case inj.disarmed:
		case p.Takeovers > armTakeovers: // promotion happened
		case host.Failures > armFailures: // backup host halted too
			inj.PairsLost = append(inj.PairsLost, name)
		default:
			inj.TakeoverViolations = append(inj.TakeoverViolations,
				fmt.Sprintf("%s: backup on CPU %d did not take over within %v of the fault at %v",
					name, backCPU, bound, at))
		}
	})
}

// Topology describes the fault surface RandomPlan may draw from.
// TopologyOf derives it from a built store.
type Topology struct {
	CPUs         int
	Paths        int
	NPMUs        int // distinct PM devices (0, 1 or 2)
	DataVolumes  int
	AuditVolumes int
	// Services lists killable pair names.
	Services []string
	// SpareCPUs are never failed — give it the CPUs driving the workload
	// and the crash choreography, which have no backups.
	SpareCPUs []int
}

// TopologyOf reads the fault surface off a built store.
func TopologyOf(s *ods.Store) Topology {
	topo := Topology{
		CPUs:         s.Cl.NumCPUs(),
		Paths:        2,
		DataVolumes:  len(s.DataVolumes),
		AuditVolumes: len(s.AuditVolumes),
	}
	if s.NPMUPrimary != nil {
		topo.NPMUs = 1
		if s.NPMUMirror != s.NPMUPrimary {
			topo.NPMUs = 2
		}
	}
	for _, pr := range collectPairs(s) {
		topo.Services = append(topo.Services, pr.name)
	}
	return topo
}

// RandomPlan draws n faults over the window [0, horizon) from rng.
// Derive rng with Engine.DeriveRand so chaos sweeps stay byte-
// replayable: the same seed yields the same plan yields the same
// schedule. Every fail action is paired with its restore inside the
// window, so the store ends the window fully powered even after
// overlapping faults; ProcessKill needs no restore (the backup takes
// over). NPMU faults target only device 0: chaos that power-cycles both
// mirrors of the volume is a full PM outage, which is an availability
// event, not a survivable fault.
func RandomPlan(rng *rand.Rand, topo Topology, n int, horizon sim.Time) Plan {
	type candidate struct {
		fail, restore Kind
		target        int
		service       string
	}
	var cands []candidate
	spare := make(map[int]bool, len(topo.SpareCPUs))
	for _, c := range topo.SpareCPUs {
		spare[c] = true
	}
	for c := 0; c < topo.CPUs; c++ {
		if !spare[c] {
			cands = append(cands, candidate{CPUFail, CPURestore, c, ""})
		}
	}
	for pth := 0; pth < topo.Paths; pth++ {
		cands = append(cands, candidate{PathFail, PathRestore, pth, ""})
	}
	if topo.NPMUs == 2 {
		cands = append(cands, candidate{NPMUPowerFail, NPMURestore, 0, ""})
		cands = append(cands, candidate{EndpointFail, EndpointRecover, 0, ""})
	}
	for v := 0; v < topo.DataVolumes; v++ {
		cands = append(cands, candidate{DataVolumeFail, DataVolumeRestore, v, ""})
	}
	for v := 0; v < topo.AuditVolumes; v++ {
		cands = append(cands, candidate{AuditVolumeFail, AuditVolumeRestore, v, ""})
	}
	for _, svc := range topo.Services {
		cands = append(cands, candidate{ProcessKill, ProcessKill, 0, svc})
	}
	if len(cands) == 0 || n <= 0 || horizon <= 0 {
		return nil
	}

	var plan Plan
	for i := 0; i < n; i++ {
		c := cands[rng.Intn(len(cands))]
		at := sim.Time(rng.Int63n(int64(horizon)*3/4 + 1))
		if c.service != "" {
			plan = append(plan, Fault{Kind: ProcessKill, Service: c.service, When: Trigger{At: at}})
			continue
		}
		dur := horizon/8 + sim.Time(rng.Int63n(int64(horizon/8)+1))
		plan = append(plan, Fault{Kind: c.fail, Target: c.target, When: Trigger{At: at}})
		plan = append(plan, Fault{Kind: c.restore, Target: c.target, When: Trigger{At: at, Delay: dur}})
	}
	return plan
}
