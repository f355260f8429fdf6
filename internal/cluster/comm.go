package cluster

import (
	"math"
	"sync"
	"time"
)

// Stats summarizes one distributed run: exact operation counts plus the
// modeled time/energy derived from them through the platform cost model.
type Stats struct {
	// FlopsPerRank is the exact flop count each rank reported.
	FlopsPerRank []int64
	// TotalFlops is the sum over ranks.
	TotalFlops int64
	// MaxFlops is the largest per-rank count — the serial fraction that
	// bounds compute time (load imbalance shows up here).
	MaxFlops int64
	// BytesPerRank is the exact kernel memory traffic each rank reported
	// through AddBytes: the bytes its kernels streamed through the memory
	// hierarchy, the denominator of the roofline's arithmetic intensity.
	BytesPerRank []int64
	// TotalBytes is the sum of BytesPerRank — the runtime ground truth the
	// static memmodel analyzer's derived byte polynomials are checked
	// against.
	TotalBytes int64
	// MaxBytes is the largest per-rank byte count (the bandwidth-bound
	// analogue of MaxFlops).
	MaxBytes int64
	// PeakResidentPerRank is the exact resident-set size each rank reported
	// through AddResident: the bytes of operator state (data blocks,
	// dictionary replicas, scratch buffers) live on that rank for the run —
	// the Eq. 4 capacity axis, and the runtime ground truth the static
	// allocmodel analyzer's derived resident polynomials are checked
	// against.
	PeakResidentPerRank []int64
	// MaxResident is the largest per-rank resident set — the number a
	// platform's MemBytesCapacity must cover for the run to fit in RAM.
	MaxResident int64
	// PathWords counts words on the communication critical path: each
	// collective contributes its vector length once (pipelined tree), the
	// quantity the paper's min(M, L) bound refers to.
	PathWords int64
	// TotalWords counts every word moved by every rank (drives energy).
	TotalWords int64
	// Phases is the number of collective operations executed.
	Phases int64
	// InjectedDelay totals the virtual-time slowdown seconds an armed
	// FaultPlan charged during the run (zero when no plan is installed).
	InjectedDelay float64
	// CorruptWords counts Reduce contribution words an armed FaultPlan
	// perturbed during the run.
	CorruptWords int64

	// ModeledTime is the bulk-synchronous time estimate in seconds:
	// Σ over phases of (slowest rank's compute + path words + latency),
	// plus the compute tail after the last collective.
	ModeledTime float64
	// ModeledEnergy is the energy estimate in joules: every flop plus
	// every word moved.
	ModeledEnergy float64
	// Wall is the measured wall-clock time of the run.
	Wall time.Duration

	// Trace is the ordered collective schedule the run executed, one entry
	// per phase, recorded only when the communicator's tracing is enabled
	// (see Comm.EnableTrace). It is the runtime ground truth the static
	// schedule analyzer's traces are cross-checked against.
	Trace []PhaseTrace
}

// PhaseTrace records one executed collective phase. An Allreduce appears as
// its two constituent phases (Reduce to 0, Broadcast from 0), exactly as
// Algorithm 2 executes and charges them.
type PhaseTrace struct {
	// Op is the collective kind: "Reduce", "Broadcast", or "Barrier".
	Op string `json:"op"`
	// Root is the root rank (0 for Barrier).
	Root int `json:"root"`
	// Words is the vector length every rank passed (0 for Barrier).
	Words int `json:"words"`
}

// Accumulate folds o into s: counts add, per-rank flops add element-wise
// (shapes must match or s must be empty). Iterative solvers use this to sum
// per-iteration statistics into run totals.
func (s *Stats) Accumulate(o Stats) {
	if s.FlopsPerRank == nil {
		s.FlopsPerRank = make([]int64, len(o.FlopsPerRank))
	}
	if len(s.FlopsPerRank) != len(o.FlopsPerRank) {
		panic("cluster: Accumulate rank-count mismatch")
	}
	for i, f := range o.FlopsPerRank {
		s.FlopsPerRank[i] += f
	}
	if s.BytesPerRank == nil {
		s.BytesPerRank = make([]int64, len(o.BytesPerRank))
	}
	if len(s.BytesPerRank) != len(o.BytesPerRank) {
		panic("cluster: Accumulate rank-count mismatch")
	}
	for i, b := range o.BytesPerRank {
		s.BytesPerRank[i] += b
	}
	if s.PeakResidentPerRank == nil {
		s.PeakResidentPerRank = make([]int64, len(o.PeakResidentPerRank))
	}
	if len(s.PeakResidentPerRank) != len(o.PeakResidentPerRank) {
		panic("cluster: Accumulate rank-count mismatch")
	}
	// Residency is a high-water mark, not a flow: iterations reuse the same
	// operator buffers, so across iterations the peak is the element-wise
	// max, never the sum.
	for i, b := range o.PeakResidentPerRank {
		s.PeakResidentPerRank[i] = max(s.PeakResidentPerRank[i], b)
	}
	s.MaxResident = max(s.MaxResident, o.MaxResident)
	s.TotalFlops += o.TotalFlops
	s.TotalBytes += o.TotalBytes
	// Sequential iterations: critical paths add.
	s.MaxFlops += o.MaxFlops
	s.MaxBytes += o.MaxBytes
	s.PathWords += o.PathWords
	s.TotalWords += o.TotalWords
	s.Phases += o.Phases
	s.InjectedDelay += o.InjectedDelay
	s.CorruptWords += o.CorruptWords
	s.ModeledTime += o.ModeledTime
	s.ModeledEnergy += o.ModeledEnergy
	s.Wall += o.Wall
	// Sequential iterations: schedules concatenate.
	s.Trace = append(s.Trace, o.Trace...)
}

// Comm is one communicator: P ranks sharing a collective rendezvous.
// Build with NewComm, run a distributed body with Run. A Comm is reusable
// across Run calls but a single Run must not be entered concurrently.
type Comm struct {
	platform Platform
	p        int

	mu      sync.Mutex
	cond    *sync.Cond
	arrived int
	gen     uint64
	kind    collKind
	root    int
	vecLen  int

	contrib [][]float64 // reduce: per-rank staged contributions
	rootDst []float64   // reduce: root's output buffer
	src     []float64   // broadcast: root's source buffer
	dst     [][]float64 // broadcast: per-rank destinations
	sum     []float64   // reduce: accumulation scratch, reused across phases

	// sinceFlops[r] accumulates rank r's flops since the last phase close;
	// sinceBytes[r] its kernel memory traffic, charged the same way.
	sinceFlops []int64
	totalFlops []int64
	sinceBytes []int64
	totalBytes []int64

	// residentBytes[r] accumulates rank r's reported resident-set bytes for
	// the current Run. Within one Run the operators' AddResident claims are
	// establishment-only (hotalloc keeps rank bodies allocation-free, so
	// nothing is freed mid-run) and the sum is the peak.
	residentBytes []int64

	pathWords  int64
	totalWords int64
	phases     int64
	modeled    float64

	// tracing records every phase into trace when enabled; the slice is
	// truncated (capacity kept) on each Run so steady-state tracing does
	// not allocate per iteration.
	tracing bool
	trace   []PhaseTrace

	// Fault injection state (see fault.go). plan is the armed schedule
	// (nil = injection off); fired marks consumed faults; pending indexes
	// unfired crash/slowdown faults by exact phase, while corrupt lists
	// unfired corruption faults in plan order (they fire at the first
	// reduction at or after their phase). faultClock counts collective
	// phases since the plan was installed and deliberately survives
	// reset() so a schedule spans every Run of a multi-iteration solve.
	// sinceDelay[r] accumulates rank r's injected virtual delay since the
	// last phase close, folded into the phase critical path exactly like
	// slow flops.
	plan          *FaultPlan
	fired         []bool
	pending       map[int64][]int
	corrupt       []int
	faultClock    int64
	sinceDelay    []float64
	injectedDelay float64
	corruptWords  int64

	// aborted flips when any rank's body panics (or a collective detects
	// misuse); failure records the first panic value. Blocked ranks are
	// released with the same failure so a bad Run dies loudly instead of
	// deadlocking, and Run re-panics with it on the caller's goroutine.
	aborted bool
	failure any
}

type collKind uint8

const (
	collNone collKind = iota
	collReduce
	collBroadcast
	collBarrier
)

// String names the collective kind as it appears in phase traces, matching
// the Rank method that initiates it.
func (k collKind) String() string {
	switch k {
	case collReduce:
		return "Reduce"
	case collBroadcast:
		return "Broadcast"
	case collBarrier:
		return "Barrier"
	}
	return "none"
}

// NewComm returns a communicator for the given platform.
func NewComm(p Platform) *Comm {
	if err := p.Topology.Validate(); err != nil {
		panic(err)
	}
	c := &Comm{
		platform:      p,
		p:             p.Topology.P(),
		contrib:       make([][]float64, p.Topology.P()),
		dst:           make([][]float64, p.Topology.P()),
		sinceFlops:    make([]int64, p.Topology.P()),
		totalFlops:    make([]int64, p.Topology.P()),
		sinceBytes:    make([]int64, p.Topology.P()),
		totalBytes:    make([]int64, p.Topology.P()),
		residentBytes: make([]int64, p.Topology.P()),
		sinceDelay:    make([]float64, p.Topology.P()),
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// P returns the number of ranks.
func (c *Comm) P() int { return c.p }

// EnableTrace turns on collective schedule recording: every subsequent Run
// returns its ordered phase trace in Stats.Trace. Tracing is off by default
// so long solver runs do not retain per-phase records. Must not be called
// while a Run is in flight.
func (c *Comm) EnableTrace() { c.tracing = true }

// Run executes body once per rank, concurrently, and returns the collected
// statistics. Statistics reset on each Run.
//
// If any rank's body panics — including the "cluster: mismatched collective
// operations across ranks" misuse panic — every other rank is released from
// its rendezvous with the same failure and Run re-panics with the first
// panic value on the caller's goroutine. Misuse therefore surfaces as one
// deterministic, recoverable panic rather than a deadlock or process crash.
// The Comm remains reusable afterwards: the next Run starts from reset
// state.
func (c *Comm) Run(body func(r *Rank)) Stats {
	c.reset()
	start := time.Now()
	var wg sync.WaitGroup
	for id := 0; id < c.p; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer func() {
				if e := recover(); e != nil {
					c.abort(e)
				}
			}()
			body(&Rank{ID: id, c: c})
		}(id)
	}
	wg.Wait()
	if c.failure != nil {
		panic(c.failure)
	}
	wall := time.Since(start)

	// Compute tail after the last collective (injected delays only linger
	// here if the run aborted between injection and the phase close).
	var tail float64
	for i, f := range c.sinceFlops {
		t := float64(f)*c.platform.Cost.FlopTime +
			float64(c.sinceBytes[i])*c.platform.Cost.MemByteTime +
			c.sinceDelay[i]
		if t > tail {
			tail = t
		}
	}
	c.modeled += tail

	st := Stats{
		FlopsPerRank:        append([]int64(nil), c.totalFlops...),
		BytesPerRank:        append([]int64(nil), c.totalBytes...),
		PeakResidentPerRank: append([]int64(nil), c.residentBytes...),
		PathWords:           c.pathWords,
		TotalWords:          c.totalWords,
		Phases:              c.phases,
		InjectedDelay:       c.injectedDelay,
		CorruptWords:        c.corruptWords,
		ModeledTime:         c.modeled,
		Wall:                wall,
	}
	if c.tracing {
		st.Trace = append([]PhaseTrace(nil), c.trace...)
	}
	for _, f := range c.totalFlops {
		st.TotalFlops += f
		if f > st.MaxFlops {
			st.MaxFlops = f
		}
	}
	for _, b := range c.totalBytes {
		st.TotalBytes += b
		if b > st.MaxBytes {
			st.MaxBytes = b
		}
	}
	for _, b := range c.residentBytes {
		if b > st.MaxResident {
			st.MaxResident = b
		}
	}
	st.ModeledEnergy = float64(st.TotalFlops)*c.platform.Cost.FlopEnergy +
		float64(c.totalWords)*c.platform.WordEnergy()
	return st
}

func (c *Comm) reset() {
	c.arrived, c.gen = 0, 0
	c.kind, c.root, c.vecLen = collNone, 0, 0
	c.rootDst, c.src = nil, nil
	for i := range c.dst {
		c.dst[i] = nil
		c.contrib[i] = nil
	}
	for i := range c.sinceFlops {
		c.sinceFlops[i] = 0
		c.totalFlops[i] = 0
		c.sinceBytes[i] = 0
		c.totalBytes[i] = 0
		c.residentBytes[i] = 0
		c.sinceDelay[i] = 0
	}
	c.pathWords, c.totalWords, c.phases = 0, 0, 0
	c.modeled = 0
	// plan, fired, pending and faultClock deliberately survive: the fault
	// schedule spans every Run of a multi-iteration solve.
	c.injectedDelay, c.corruptWords = 0, 0
	c.trace = c.trace[:0]
	c.aborted, c.failure = false, nil
}

// abort records the first failure and wakes every rank blocked in a
// rendezvous so the whole Run unwinds instead of deadlocking.
func (c *Comm) abort(v any) {
	c.mu.Lock()
	c.abortLocked(v)
	c.mu.Unlock()
}

// abortLocked is abort for callers already holding c.mu.
func (c *Comm) abortLocked(v any) {
	if !c.aborted {
		c.aborted = true
		c.failure = v
	}
	c.cond.Broadcast()
}

// closePhase charges the bulk-synchronous cost of the completed phase: the
// slowest rank's accumulated compute plus any injected virtual delay, the
// critical-path word cost of the collective, and the reduction-tree
// latency. Per-rank time is formed as flops·FlopTime + bytes·MemByteTime +
// delay, so an injected slowdown competes for the critical path exactly
// like slow compute; with no delays or byte claims this is bit-identical
// to scaling the max by FlopTime afterwards.
// It also advances the fault clock: the next collective entered has the
// next injection index. Callers hold c.mu.
func (c *Comm) closePhase(vecLen int) {
	var maxT float64
	for i, f := range c.sinceFlops {
		t := float64(f)*c.platform.Cost.FlopTime +
			float64(c.sinceBytes[i])*c.platform.Cost.MemByteTime +
			c.sinceDelay[i]
		if t > maxT {
			maxT = t
		}
		c.sinceFlops[i] = 0
		c.sinceBytes[i] = 0
		c.sinceDelay[i] = 0
	}
	hops := 1.0
	if c.p > 1 {
		hops = math.Ceil(math.Log2(float64(c.p)))
	}
	c.modeled += maxT +
		float64(vecLen)*c.platform.WordTime() +
		hops*c.platform.Latency()
	if c.tracing {
		c.trace = append(c.trace, PhaseTrace{Op: c.kind.String(), Root: c.root, Words: vecLen})
	}
	c.pathWords += int64(vecLen)
	// Every non-root rank moves vecLen words in a reduce or broadcast.
	c.totalWords += int64(vecLen) * int64(c.p-1)
	c.phases++
	c.faultClock++
}

// Rank is one logical processor's handle inside a Run body.
type Rank struct {
	// ID is the processor id ("pid" in the paper's algorithms), 0-based.
	ID int
	c  *Comm
}

// P returns the total number of ranks in the communicator.
func (r *Rank) P() int { return r.c.p }

// Node returns the node this rank lives on (ranks are node-major).
func (r *Rank) Node() int { return r.ID / r.c.platform.Topology.CoresPerNode }

// AddFlops reports n floating point operations executed by this rank since
// its previous report. It is the instrumentation hook the distributed
// kernels call; counts feed both the phase accounting and Stats.
//
// Each rank touches only its own counters between collectives, and the
// collective rendezvous reads them under the communicator lock after every
// rank has arrived, so the fast path needs no synchronization.
func (r *Rank) AddFlops(n int64) {
	if n < 0 {
		panic("cluster: negative flop count")
	}
	r.c.sinceFlops[r.ID] += n
	r.c.totalFlops[r.ID] += n
}

// AddBytes reports n bytes of kernel memory traffic streamed by this rank
// since its previous report — the bytes a kernel reads and writes through
// the memory hierarchy, placed alongside the kernel's AddFlops claim. The
// static memmodel analyzer proves every claim equal to the byte polynomial
// it derives from the kernel's shape, and the counts feed both the phase
// accounting (through CostModel.MemByteTime) and Stats.TotalBytes.
func (r *Rank) AddBytes(n int64) {
	if n < 0 {
		panic("cluster: negative byte count")
	}
	r.c.sinceBytes[r.ID] += n
	r.c.totalBytes[r.ID] += n
}

// AddResident reports n bytes of operator state resident on this rank for
// the duration of the run: its data block, any dictionary replica, and its
// scratch buffers — the per-rank footprint Eq. 4 bounds. Unlike AddFlops
// and AddBytes this is not a flow: the claims establish a high-water mark
// (hotalloc keeps rank bodies allocation-free, so within one Run the
// established set never shrinks and the claim sum is the peak), the counts
// feed Stats.PeakResidentPerRank, and Stats.Accumulate folds iterations by
// element-wise max rather than addition. The static allocmodel analyzer
// proves every claim equal to the resident polynomial it derives from the
// operator's constructor contracts.
func (r *Rank) AddResident(n int64) {
	if n < 0 {
		panic("cluster: negative resident byte count")
	}
	r.c.residentBytes[r.ID] += n
}

// collective is the shared rendezvous: stage runs under the lock when the
// rank arrives; finalize runs under the lock exactly once after all P ranks
// have staged; every rank returns only after finalize completed. All copies
// into rank-owned buffers happen inside finalize, before anyone resumes, so
// no rank can observe another phase's data.
func (r *Rank) collective(kind collKind, root, vecLen int, stage, finalize func()) {
	c := r.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.aborted {
		// A peer already failed; propagate its failure instead of waiting
		// for a rendezvous that can never complete.
		panic(c.failure)
	}
	if c.plan != nil {
		// Keyed to the fault clock, not arrival order, so a schedule
		// replays identically regardless of goroutine interleaving.
		c.injectEntryLocked()
	}
	if c.arrived == 0 {
		c.kind, c.root, c.vecLen = kind, root, vecLen
	} else if c.kind != kind || c.root != root || c.vecLen != vecLen {
		const msg = "cluster: mismatched collective operations across ranks"
		c.abortLocked(msg)
		panic(msg)
	}
	if stage != nil {
		stage()
	}
	c.arrived++
	if c.arrived == c.p {
		finalize()
		c.closePhase(vecLen)
		c.arrived = 0
		c.kind = collNone
		c.gen++
		c.cond.Broadcast()
		return
	}
	gen := c.gen
	for c.gen == gen && !c.aborted {
		c.cond.Wait()
	}
	if c.gen == gen && c.aborted {
		// Released by an abort, not by phase completion.
		panic(c.failure)
	}
}

// Reduce element-wise sums vec across all ranks. After the call the root
// rank's vec holds the sum; other ranks' buffers are unchanged. All ranks
// must pass slices of equal length (paper Algorithm 2 steps 3-4).
func (r *Rank) Reduce(vec []float64, root int) {
	c := r.c
	r.collective(collReduce, root, len(vec), func() {
		c.contrib[r.ID] = vec
		if r.ID == root {
			c.rootDst = vec
		}
	}, func() {
		// Sum in rank order so results are bitwise deterministic across
		// runs regardless of goroutine arrival order. The scratch lives on
		// the Comm — finalize runs under the lock, so one buffer serves
		// every phase without allocating.
		sum := c.sumScratch(c.vecLen)
		if c.hasCorruption() {
			// A fault plan targets this phase: read each contribution
			// word through the injector (models a transmission error;
			// the contributing rank's buffer is untouched).
			for id := 0; id < c.p; id++ {
				for i, v := range c.contrib[id] {
					sum[i] += v + c.corruptionLocked(id, i, c.vecLen)
				}
				c.contrib[id] = nil
			}
		} else {
			for id := 0; id < c.p; id++ {
				for i, v := range c.contrib[id] {
					sum[i] += v
				}
				c.contrib[id] = nil
			}
		}
		copy(c.rootDst, sum)
		c.rootDst = nil
	})
}

// sumScratch returns a zeroed length-n view of the communicator's reduce
// buffer, growing it on first use or when a longer vector arrives. Callers
// hold c.mu (finalize runs under the lock).
func (c *Comm) sumScratch(n int) []float64 {
	if cap(c.sum) < n {
		c.sum = make([]float64, n)
	}
	s := c.sum[:n]
	clear(s)
	return s
}

// Broadcast copies the root rank's vec into every other rank's vec
// (Algorithm 2 step 6). All ranks must pass slices of equal length.
func (r *Rank) Broadcast(vec []float64, root int) {
	c := r.c
	r.collective(collBroadcast, root, len(vec), func() {
		if r.ID == root {
			c.src = vec
		} else {
			c.dst[r.ID] = vec
		}
	}, func() {
		for i, d := range c.dst {
			if d != nil {
				copy(d, c.src)
				c.dst[i] = nil
			}
		}
		c.src = nil
	})
}

// Allreduce sums vec across ranks and leaves the sum in every rank's vec.
// It is implemented, and charged, as Reduce-to-0 followed by Broadcast-from-0
// — the exact two phases Algorithm 2 executes.
func (r *Rank) Allreduce(vec []float64) {
	r.Reduce(vec, 0)
	r.Broadcast(vec, 0)
}

// Barrier synchronizes all ranks and closes the current compute phase
// without moving data.
func (r *Rank) Barrier() {
	r.collective(collBarrier, 0, 0, nil, func() {})
}
