package cluster

import (
	"errors"
	"reflect"
	"strings"
	"testing"
)

// allreduceBody is a simple SPMD workload: n Allreduces (2n phases) over a
// fixed-length vector, with a little per-rank compute reported around each.
func allreduceBody(n, words int) func(r *Rank) {
	return func(r *Rank) {
		vec := make([]float64, words)
		for i := range vec {
			vec[i] = float64(r.ID + i)
		}
		for k := 0; k < n; k++ {
			r.AddFlops(int64(10 * (r.ID + 1)))
			r.Allreduce(vec)
		}
	}
}

func TestFaultCrashAbortsWithRankCrash(t *testing.T) {
	c := NewComm(NewPlatform(1, 4))
	c.InstallFaultPlan(&FaultPlan{Faults: []Fault{
		{Kind: FaultCrash, Rank: 2, Phase: 1},
	}})
	failure := runExpectPanic(t, c, allreduceBody(3, 8))
	rc, ok := failure.(RankCrash)
	if !ok {
		t.Fatalf("failure = %#v, want RankCrash", failure)
	}
	if rc.Rank != 2 || rc.Phase != 1 {
		t.Fatalf("RankCrash = %+v, want rank 2 phase 1", rc)
	}
	if !strings.Contains(rc.Error(), "rank 2") {
		t.Fatalf("error %q does not name the dead rank", rc.Error())
	}
	var asCrash RankCrash
	if !errors.As(error(rc), &asCrash) || asCrash != rc {
		t.Fatal("RankCrash must round-trip through errors.As")
	}
	// The comm stays usable: disarm and re-run the same workload.
	c.InstallFaultPlan(nil)
	watchdog(t, func() {
		st := c.Run(allreduceBody(3, 8))
		if st.Phases != 6 {
			t.Errorf("post-recovery Phases = %d, want 6", st.Phases)
		}
	})
}

func TestFaultSlowdownChargedToModeledTime(t *testing.T) {
	const delay = 0.25
	clean := NewComm(NewPlatform(1, 2))
	var base Stats
	watchdog(t, func() { base = clean.Run(allreduceBody(1, 4)) })

	c := NewComm(NewPlatform(1, 2))
	c.InstallFaultPlan(&FaultPlan{Faults: []Fault{
		{Kind: FaultSlowdown, Rank: 1, Phase: 0, Delay: delay},
	}})
	var st Stats
	watchdog(t, func() { st = c.Run(allreduceBody(1, 4)) })

	if st.InjectedDelay != delay {
		t.Fatalf("InjectedDelay = %g, want %g", st.InjectedDelay, delay)
	}
	// The delay dominates the tiny compute in phase 0, so it shifts the
	// modeled time by at least the part exceeding the fault-free critical
	// path, and by at most the whole delay.
	shift := st.ModeledTime - base.ModeledTime
	if shift <= 0 || shift > delay {
		t.Fatalf("modeled-time shift %g not in (0, %g]", shift, delay)
	}
	if st.TotalFlops != base.TotalFlops || st.PathWords != base.PathWords {
		t.Fatal("slowdown must not change operation counts")
	}
}

func TestFaultCorruptPerturbsReduce(t *testing.T) {
	c := NewComm(NewPlatform(1, 2))
	c.InstallFaultPlan(&FaultPlan{Faults: []Fault{
		{Kind: FaultCorrupt, Rank: 1, Phase: 0, Word: 1, Delta: 0.5},
	}})
	results := make([][]float64, 2)
	watchdog(t, func() {
		st := c.Run(func(r *Rank) {
			vec := []float64{1, 2, 3}
			r.Reduce(vec, 0)
			results[r.ID] = vec
		})
		if st.CorruptWords != 1 {
			t.Errorf("CorruptWords = %d, want 1", st.CorruptWords)
		}
	})
	// Root sum: word 1 picked up rank 1's +0.5 perturbation.
	if want := []float64{2, 4.5, 6}; !reflect.DeepEqual(results[0], want) {
		t.Fatalf("root result %v, want %v", results[0], want)
	}
	// The corruption models a transmission error: the contributing rank's
	// own buffer stays clean.
	if want := []float64{1, 2, 3}; !reflect.DeepEqual(results[1], want) {
		t.Fatalf("rank 1 buffer %v, want untouched %v", results[1], want)
	}
}

func TestFaultCorruptWrapsWordModuloVecLen(t *testing.T) {
	c := NewComm(NewPlatform(1, 2))
	c.InstallFaultPlan(&FaultPlan{Faults: []Fault{
		{Kind: FaultCorrupt, Rank: 0, Phase: 0, Word: 7, Delta: 1},
	}})
	var root []float64
	watchdog(t, func() {
		c.Run(func(r *Rank) {
			vec := []float64{0, 0, 0}
			r.Reduce(vec, 0)
			if r.ID == 0 {
				root = vec
			}
		})
	})
	// Word 7 wraps to index 7 % 3 = 1.
	if want := []float64{0, 1, 0}; !reflect.DeepEqual(root, want) {
		t.Fatalf("root result %v, want %v", root, want)
	}
}

func TestFaultClockSpansRuns(t *testing.T) {
	// The schedule targets collective index 3 of the solve; each Run
	// contributes 2 phases, so the crash fires in the second Run.
	c := NewComm(NewPlatform(1, 3))
	c.InstallFaultPlan(&FaultPlan{Faults: []Fault{
		{Kind: FaultCrash, Rank: 0, Phase: 3},
	}})
	watchdog(t, func() { c.Run(allreduceBody(1, 2)) })
	failure := runExpectPanic(t, c, allreduceBody(1, 2))
	rc, ok := failure.(RankCrash)
	if !ok || rc.Phase != 3 {
		t.Fatalf("failure = %#v, want RankCrash at phase 3", failure)
	}
}

func TestEmptyFaultPlanChangesNothing(t *testing.T) {
	clean := NewComm(NewPlatform(2, 2))
	armed := NewComm(NewPlatform(2, 2))
	armed.InstallFaultPlan(&FaultPlan{Seed: 99})
	var a, b Stats
	watchdog(t, func() {
		a = clean.Run(allreduceBody(4, 16))
		b = armed.Run(allreduceBody(4, 16))
	})
	a.Wall, b.Wall = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("empty fault plan perturbed stats:\nclean: %+v\narmed: %+v", a, b)
	}
}

func TestRandomFaultPlanDeterministic(t *testing.T) {
	cfg := FaultConfig{
		P: 4, Horizon: 100,
		Crashes: 2, Slowdowns: 3, Corruptions: 3,
		MaxDelay: 0.5, MaxDelta: 0.1, MaxWord: 64,
	}
	p1 := RandomFaultPlan(7, cfg)
	p2 := RandomFaultPlan(7, cfg)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("same seed produced different plans")
	}
	if reflect.DeepEqual(p1.Faults, RandomFaultPlan(8, cfg).Faults) {
		t.Fatal("different seeds produced identical plans")
	}
	if got := len(p1.Faults); got != 8 {
		t.Fatalf("plan has %d faults, want 8", got)
	}
	crashPhases := map[int64]bool{}
	for _, f := range p1.Faults {
		if f.Phase < 0 || f.Phase >= cfg.Horizon {
			t.Fatalf("fault phase %d outside horizon", f.Phase)
		}
		if f.Rank < 0 || f.Rank >= cfg.P {
			t.Fatalf("fault rank %d outside [0,%d)", f.Rank, cfg.P)
		}
		if f.Kind == FaultCrash {
			if crashPhases[f.Phase] {
				t.Fatalf("two crashes share phase %d", f.Phase)
			}
			crashPhases[f.Phase] = true
		}
	}
}

func TestFaultReplayBitIdenticalStats(t *testing.T) {
	cfg := FaultConfig{
		P: 4, Horizon: 8,
		Slowdowns: 3, Corruptions: 2,
		MaxDelay: 0.25, MaxDelta: 0.1, MaxWord: 8,
	}
	run := func() Stats {
		c := NewComm(NewPlatform(1, 4))
		c.EnableTrace()
		c.InstallFaultPlan(RandomFaultPlan(42, cfg))
		var st Stats
		for it := 0; it < 3; it++ {
			st.Accumulate(c.Run(allreduceBody(2, 8)))
		}
		return st
	}
	a, b := run(), run()
	a.Wall, b.Wall = 0, 0
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("replay of the same seed diverged:\n%+v\n%+v", a, b)
	}
	if a.InjectedDelay == 0 {
		t.Fatal("schedule injected no delay; test exercises nothing")
	}
	if a.CorruptWords == 0 {
		t.Fatal("schedule corrupted no words; test exercises nothing")
	}
}

func TestShrinkRemapsSurvivingFaults(t *testing.T) {
	c := NewComm(NewPlatform(1, 3))
	c.InstallFaultPlan(&FaultPlan{Seed: 5, Faults: []Fault{
		{Kind: FaultCrash, Rank: 1, Phase: 0},
		{Kind: FaultSlowdown, Rank: 2, Phase: 2, Delay: 0.125},
		{Kind: FaultCorrupt, Rank: 0, Phase: 3, Word: 0, Delta: 0.5},
	}})
	failure := runExpectPanic(t, c, allreduceBody(2, 2))
	rc, ok := failure.(RankCrash)
	if !ok || rc.Rank != 1 {
		t.Fatalf("failure = %#v, want RankCrash of rank 1", failure)
	}

	s := c.Shrink(rc.Rank)
	if s.P() != 2 {
		t.Fatalf("shrunk P = %d, want 2", s.P())
	}
	if s.plan == nil {
		t.Fatal("shrunk comm lost the fault plan")
	}
	// Rank 2's slowdown renumbered to rank 1; rank 0's corruption kept.
	want := []Fault{
		{Kind: FaultSlowdown, Rank: 1, Phase: 2, Delay: 0.125},
		{Kind: FaultCorrupt, Rank: 0, Phase: 3, Word: 0, Delta: 0.5},
	}
	if !reflect.DeepEqual(s.plan.Faults, want) {
		t.Fatalf("shrunk plan %+v, want %+v", s.plan.Faults, want)
	}
	// The crash fired entering phase 0, so the clock carries over at 0 and
	// both survivors' faults still fire on the shrunk comm. The corruption
	// sits at phase 3 (a broadcast), so it defers to the reduction at
	// phase 4 — the third run.
	var st Stats
	watchdog(t, func() {
		for it := 0; it < 3; it++ {
			st.Accumulate(s.Run(allreduceBody(1, 2)))
		}
	})
	//lint:ignore nofloateq the injected delay is summed from exactly one fault, so it is bit-exact
	if st.InjectedDelay != 0.125 {
		t.Fatalf("InjectedDelay = %g, want 0.125", st.InjectedDelay)
	}
	if st.CorruptWords != 1 {
		t.Fatalf("CorruptWords = %d, want 1", st.CorruptWords)
	}

	// The original communicator was not mutated by the shrink.
	if c.P() != 3 {
		t.Fatalf("original P changed to %d", c.P())
	}
}

func TestShrinkValidation(t *testing.T) {
	c := NewComm(NewPlatform(1, 2))
	for _, dead := range []int{-1, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Shrink(%d) did not panic", dead)
				}
			}()
			c.Shrink(dead)
		}()
	}
	one := NewComm(NewPlatform(1, 1))
	defer func() {
		if recover() == nil {
			t.Error("Shrink on P=1 did not panic")
		}
	}()
	one.Shrink(0)
}
