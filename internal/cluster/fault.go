package cluster

import (
	"fmt"
	"sort"
	"sync"

	"extdict/internal/rng"
)

// This file implements deterministic fault injection for the simulated
// cluster: a seeded FaultPlan installed on a Comm kills ranks at chosen
// collective indices, slows ranks down by virtual-time delays (counted in
// the modeled cost, never via wall clocks), and corrupts words in Reduce
// payloads. Every injection is keyed to the communicator's fault clock — a
// monotone count of completed collective phases since the plan was armed —
// so a given seed replays bit-identically regardless of goroutine
// scheduling. The Supervisor in internal/solver builds on the crash side:
// it catches the RankCrash abort, shrinks the communicator to the
// survivors, and re-executes from a checkpoint.

// FaultKind classifies an injected fault.
type FaultKind uint8

const (
	// FaultCrash kills the target rank at the start of the target
	// collective: as soon as any rank enters the phase the abort protocol
	// fires with a RankCrash naming the scheduled rank, every peer is
	// released, and Run re-panics with the RankCrash value. Firing on
	// first phase entry (rather than on the dying rank's own arrival)
	// keeps the injection independent of goroutine arrival order.
	FaultCrash FaultKind = iota
	// FaultSlowdown charges the target rank Delay virtual seconds of extra
	// compute in the target phase. The delay flows through the
	// bulk-synchronous accounting exactly like slow flops — it can move the
	// phase's critical path — and is totaled in Stats.InjectedDelay. No
	// wall-clock sleeping is involved, so runs stay deterministic.
	FaultSlowdown
	// FaultCorrupt perturbs one word of the target rank's Reduce
	// contribution: the value summed into the reduction is read as
	// contribution+Delta. The rank's own buffer is not modified (the
	// corruption models a transmission error, not memory corruption).
	// Corruptions target reductions, so the fault fires at the first
	// Reduce whose fault-clock index is at or after Phase — a phase index
	// landing on a broadcast or barrier defers to the next reduction.
	// Corrupted words are totaled in Stats.CorruptWords.
	FaultCorrupt
)

// String names the fault kind for reports.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultSlowdown:
		return "slowdown"
	case FaultCorrupt:
		return "corrupt"
	}
	return "unknown"
}

// Fault is one scheduled injection. Phase is the fault-clock index of the
// collective it fires in: the number of collective phases the communicator
// has completed since the plan was installed (an Allreduce counts as two
// phases, exactly as it executes). Each fault fires at most once.
type Fault struct {
	Kind FaultKind
	// Rank is the target rank ID at injection time. When the communicator
	// is shrunk after a crash, pending faults are renumbered with the dead
	// rank's slot removed, so a fault keeps tracking the same logical
	// survivor.
	Rank int
	// Phase is the fault-clock index of the target collective. Crashes and
	// slowdowns fire exactly at this index; corruptions fire at the first
	// reduction at or after it.
	Phase int64
	// Delay is the virtual-time slowdown in modeled seconds (FaultSlowdown).
	Delay float64
	// Word indexes the corrupted element of the Reduce vector, modulo the
	// vector length at injection time (FaultCorrupt).
	Word int
	// Delta is the additive perturbation applied to the corrupted word
	// (FaultCorrupt).
	Delta float64
}

// FaultPlan is a deterministic schedule of injections. Install it on a
// communicator with Comm.InstallFaultPlan; the Comm keeps its own copy, so
// a plan value can be reused to arm several communicators identically.
type FaultPlan struct {
	// Seed records the seed the plan was generated from (0 for hand-built
	// plans); it is carried for reports only.
	Seed uint64
	// Faults is the schedule. Crashes must sit at distinct phases: two
	// ranks crashing in the same phase would race to abort first and the
	// surviving failure value would depend on goroutine scheduling.
	Faults []Fault
}

// FaultConfig bounds the random schedule RandomFaultPlan draws.
type FaultConfig struct {
	// P is the rank count faults target (ranks are drawn from [0, P)).
	P int
	// Horizon is the fault-clock range faults are drawn from ([0, Horizon)).
	Horizon int64
	// Crashes, Slowdowns and Corruptions count the faults of each kind.
	Crashes, Slowdowns, Corruptions int
	// MaxDelay bounds each slowdown's virtual delay in seconds.
	MaxDelay float64
	// MaxDelta bounds each corruption's |additive perturbation|.
	MaxDelta float64
	// MaxWord bounds the corrupted word index drawn (the injector wraps it
	// modulo the live vector length, so any positive bound is safe).
	MaxWord int
}

// RandomFaultPlan draws a schedule from the seed through internal/rng: the
// same seed and config always yield the same plan, which is what makes a
// chaos run replayable bit-for-bit. Crash phases are drawn without
// replacement so at most one rank dies per collective.
func RandomFaultPlan(seed uint64, cfg FaultConfig) *FaultPlan {
	if cfg.P < 1 || cfg.Horizon < 1 {
		panic("cluster: RandomFaultPlan needs P >= 1 and Horizon >= 1")
	}
	if cfg.MaxWord < 1 {
		cfg.MaxWord = 1
	}
	r := rng.New(seed)
	plan := &FaultPlan{Seed: seed}

	// Crashes: distinct phases, drawn via a subset so two ranks never race
	// to abort the same collective.
	n := cfg.Crashes
	if int64(n) > cfg.Horizon {
		n = int(cfg.Horizon)
	}
	for _, ph := range r.Subset(int(cfg.Horizon), n) {
		plan.Faults = append(plan.Faults, Fault{
			Kind:  FaultCrash,
			Rank:  r.Intn(cfg.P),
			Phase: int64(ph),
		})
	}
	for i := 0; i < cfg.Slowdowns; i++ {
		plan.Faults = append(plan.Faults, Fault{
			Kind:  FaultSlowdown,
			Rank:  r.Intn(cfg.P),
			Phase: int64(r.Intn(int(cfg.Horizon))),
			Delay: cfg.MaxDelay * r.Float64(),
		})
	}
	for i := 0; i < cfg.Corruptions; i++ {
		plan.Faults = append(plan.Faults, Fault{
			Kind:  FaultCorrupt,
			Rank:  r.Intn(cfg.P),
			Phase: int64(r.Intn(int(cfg.Horizon))),
			Word:  r.Intn(cfg.MaxWord),
			Delta: cfg.MaxDelta * (2*r.Float64() - 1),
		})
	}
	sort.SliceStable(plan.Faults, func(i, j int) bool {
		return plan.Faults[i].Phase < plan.Faults[j].Phase
	})
	return plan
}

// RankCrash is the panic value a FaultCrash raises. It unwinds through the
// abort protocol, so Comm.Run re-panics with it on the caller's goroutine;
// a supervisor recovers it to learn which rank died and shrink around it.
type RankCrash struct {
	// Rank is the ID of the crashed rank.
	Rank int
	// Phase is the fault-clock index of the collective it died entering.
	Phase int64
}

// Error renders the crash with the dead rank's ID, the anchor the abort
// regression tests pin.
func (e RankCrash) Error() string {
	return fmt.Sprintf("cluster: rank %d killed by fault plan at collective %d", e.Rank, e.Phase)
}

// InstallFaultPlan arms a copy of plan on the communicator and resets the
// fault clock to zero; nil disarms injection. The plan persists across Run
// calls — the fault clock keeps counting phases from Run to Run, which is
// what lets a schedule target "the 57th collective of the solve" when every
// solver iteration is its own Run. Must not be called while a Run is in
// flight.
func (c *Comm) InstallFaultPlan(plan *FaultPlan) {
	if plan == nil {
		c.plan, c.fired, c.pending, c.corrupt = nil, nil, nil, nil
		c.faultClock = 0
		return
	}
	c.plan = &FaultPlan{Seed: plan.Seed, Faults: append([]Fault(nil), plan.Faults...)}
	c.fired = make([]bool, len(c.plan.Faults))
	c.faultClock = 0
	c.rebuildPending()
}

// rebuildPending indexes the unfired faults: crashes and slowdowns by exact
// phase for O(1) lookup at collective entry, corruptions as an ordered list
// consulted at Reduce finalize. Both keep plan order, so multiple faults
// eligible at the same moment always fire in the same order.
func (c *Comm) rebuildPending() {
	c.pending = make(map[int64][]int, len(c.plan.Faults))
	c.corrupt = c.corrupt[:0]
	for i := range c.plan.Faults {
		if c.fired[i] {
			continue
		}
		f := &c.plan.Faults[i]
		if f.Kind == FaultCorrupt {
			c.corrupt = append(c.corrupt, i)
		} else {
			c.pending[f.Phase] = append(c.pending[f.Phase], i)
		}
	}
}

// fireFault marks fault i consumed and removes it from the pending index.
func (c *Comm) fireFault(i int) {
	c.fired[i] = true
	phase := c.plan.Faults[i].Phase
	fs := c.pending[phase]
	for k, idx := range fs {
		if idx == i {
			fs = append(fs[:k], fs[k+1:]...)
			break
		}
	}
	if len(fs) == 0 {
		delete(c.pending, phase)
	} else {
		c.pending[phase] = fs
	}
}

// injectEntryLocked fires every crash and slowdown fault scheduled for the
// collective now being entered (fault-clock index c.faultClock). It runs
// when the FIRST rank reaches the phase and consumes all of the phase's
// entry faults at once, in plan order — which rank's goroutine happened to
// arrive first never matters, so replays are scheduling-independent even
// when a slowdown and a crash share a phase. Callers hold c.mu. A crash
// aborts the Run and panics with the RankCrash; a slowdown charges the
// target rank virtual compute time for this phase.
func (c *Comm) injectEntryLocked() {
	for {
		pend := c.pending[c.faultClock]
		if len(pend) == 0 {
			return
		}
		i := pend[0]
		f := &c.plan.Faults[i]
		switch f.Kind {
		case FaultCrash:
			rc := RankCrash{Rank: f.Rank, Phase: c.faultClock}
			c.fireFault(i)
			c.abortLocked(rc)
			panic(rc)
		case FaultSlowdown:
			c.sinceDelay[f.Rank] += f.Delay
			c.injectedDelay += f.Delay
			c.fireFault(i)
		}
	}
}

// corruptionLocked returns the additive perturbation for element i of rank
// id's contribution to the Reduce now finalizing, consuming every matching
// corruption fault whose phase has come due. The list is scanned in plan
// order, so stacked perturbations on one word always sum in the same
// order. Callers hold c.mu (finalize runs under the lock).
func (c *Comm) corruptionLocked(id, i, vecLen int) float64 {
	if vecLen == 0 {
		return 0
	}
	var delta float64
	for k := 0; k < len(c.corrupt); {
		idx := c.corrupt[k]
		f := &c.plan.Faults[idx]
		if f.Phase <= c.faultClock && f.Rank == id && f.Word%vecLen == i {
			delta += f.Delta
			c.corruptWords++
			c.fired[idx] = true
			c.corrupt = append(c.corrupt[:k], c.corrupt[k+1:]...)
			continue
		}
		k++
	}
	return delta
}

// hasCorruption reports whether any corruption fault has come due for the
// Reduce now finalizing; it lets the fast path skip per-element lookups
// entirely on fault-free phases. Callers hold c.mu.
func (c *Comm) hasCorruption() bool {
	if c.plan == nil {
		return false
	}
	for _, i := range c.corrupt {
		if c.plan.Faults[i].Phase <= c.faultClock {
			return true
		}
	}
	return false
}

// Shrink returns a fresh communicator over the survivors after rank dead
// crashed: P-1 ranks, the same platform cost model, and the same fault
// plan with the dead rank's pending faults dropped, surviving ranks
// renumbered past the gap, and the fault clock carried over (the schedule
// keeps its position on the solve's timeline). Faults already fired stay
// consumed. Tracing stays enabled if it was. The original communicator is
// left untouched.
//
// Rank-to-node assignment keeps the node-major rule on the shrunk ID space,
// so Node() remains a modeling approximation after a shrink; the modeled
// cost uses the platform's flop, word and latency constants, which are
// unaffected.
func (c *Comm) Shrink(dead int) *Comm {
	if c.p <= 1 {
		panic("cluster: cannot shrink a single-rank communicator")
	}
	if dead < 0 || dead >= c.p {
		panic(fmt.Sprintf("cluster: Shrink rank %d out of range [0,%d)", dead, c.p))
	}
	p := c.p - 1
	n := &Comm{
		platform:      c.platform,
		p:             p,
		contrib:       make([][]float64, p),
		dst:           make([][]float64, p),
		sinceFlops:    make([]int64, p),
		totalFlops:    make([]int64, p),
		sinceBytes:    make([]int64, p),
		totalBytes:    make([]int64, p),
		residentBytes: make([]int64, p),
		sinceDelay:    make([]float64, p),
		tracing:       c.tracing,
	}
	n.cond = sync.NewCond(&n.mu)
	if c.plan != nil {
		n.plan = &FaultPlan{Seed: c.plan.Seed}
		// Plan order is preserved (no map iteration), so the shrunk
		// communicator fires surviving faults in the exact same order.
		for i, f := range c.plan.Faults {
			if c.fired[i] || f.Rank == dead {
				continue
			}
			if f.Rank > dead {
				f.Rank--
			}
			n.plan.Faults = append(n.plan.Faults, f)
		}
		n.fired = make([]bool, len(n.plan.Faults))
		n.faultClock = c.faultClock
		n.rebuildPending()
	}
	return n
}
