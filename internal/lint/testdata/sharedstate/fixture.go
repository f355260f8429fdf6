// Package fixture exercises sharedstate: every variable captured by a
// goroutine — launched with `go` or submitted to a pool sink — must be
// lock-guarded consistently, accessed only through sync/atomic, handed
// over a channel, or frozen before the launch. The safe patterns at the
// bottom (consistent guard, pure atomics, pre-launch freeze, partitioned
// slice writes, single-owner goroutine, channel hand-off) must stay quiet.
package fixture

import (
	"sync"
	"sync/atomic"
)

var (
	muA sync.Mutex
	muB sync.Mutex
)

// jobs is the fixture's pool: submit's fn parameter escapes to the worker
// goroutines through the channel, so the escape analysis classifies every
// literal passed to submit as pool-launched — the same derivation that
// resolves the real mat pool's trySubmit chain.
var jobs = make(chan func(), 8)

func startWorkers(n int, wg *sync.WaitGroup) {
	for i := 0; i < n; i++ {
		go func() {
			for fn := range jobs {
				fn()
				wg.Done()
			}
		}()
	}
}

func submit(fn func()) bool {
	select {
	case jobs <- fn:
		return true
	default:
		return false
	}
}

// forEachChunk is a pool helper layered over submit: its body parameter
// reaches submit only inside a literal, so the escape analysis must carry
// the escape through that capture for literals passed here to count as
// pool-launched.
func forEachChunk(n int, body func(lo, hi int), wg *sync.WaitGroup) {
	for c := 0; c < 4; c++ {
		lo, hi := c*n/4, (c+1)*n/4
		wg.Add(1)
		if !submit(func() { body(lo, hi) }) {
			body(lo, hi)
			wg.Done()
		}
	}
	wg.Wait()
}

// unlockedCounter races two goroutines on a plain int.
func unlockedCounter() int {
	n := 0
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); n++ }() // want "captured n is written inside a goroutine without a lock"
	go func() { defer wg.Done(); n++ }()
	wg.Wait()
	return n
}

// poolRace races pool-submitted chunks on a captured accumulator: a pool
// sink runs the literal once per submission, concurrently.
func poolRace(wg *sync.WaitGroup) int {
	total := 0
	for c := 0; c < 4; c++ {
		wg.Add(1)
		if !submit(func() { total += c }) { // want "captured total is written inside a goroutine without a lock"
			total += c
			wg.Done()
		}
	}
	wg.Wait()
	return total
}

// chunkRace races a literal launched through the forEachChunk helper on a
// captured accumulator.
func chunkRace(wg *sync.WaitGroup) int {
	total := 0
	forEachChunk(256, func(lo, hi int) { total += hi - lo }, wg) // want "captured total is written inside a goroutine without a lock"
	return total
}

// inconsistentGuards locks muA in the goroutine but muB outside.
func inconsistentGuards() int {
	v := 0
	done := make(chan struct{})
	go func() {
		muA.Lock()
		v++
		muA.Unlock()
		close(done)
	}()
	muB.Lock()
	v++ // want "captured v is written under muB but the goroutine accesses it under muA"
	muB.Unlock()
	<-done
	return v
}

// splitGuards locks a different mutex in each goroutine — no common guard.
func splitGuards() int {
	v := 0
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); muA.Lock(); v++; muA.Unlock() }() // want "captured v is guarded inconsistently across goroutine writes"
	go func() { defer wg.Done(); muB.Lock(); v++; muB.Unlock() }()
	wg.Wait()
	return v
}

// mixedAtomic stores plainly into a variable the goroutine updates
// atomically; the suggested fix rewrites the store to atomic.StoreInt64.
func mixedAtomic() int64 {
	var n int64
	done := make(chan struct{})
	go func() {
		atomic.AddInt64(&n, 1)
		close(done)
	}()
	n = 2 // want "captured n mixes sync/atomic and plain access"
	<-done
	return atomic.LoadInt64(&n)
}

// unfrozen rewrites a captured input while the goroutine still reads it.
func unfrozen() int {
	k := 1
	res := make(chan int, 1)
	go func() { res <- k * 2 }()
	k = 3 // want "captured k is written after the goroutine launch without synchronization"
	return k + <-res
}

// readBeforeBarrier reads the goroutine's output before waiting for it.
func readBeforeBarrier() int {
	sum := 0
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); muA.Lock(); sum = 42; muA.Unlock() }()
	r := sum // want "captured sum is written by a goroutine but read here before any barrier"
	wg.Wait()
	return r
}

// --- safe patterns: none of these may produce findings -------------------

// lockedCounter guards every access with the same mutex.
func lockedCounter() int {
	n := 0
	var wg sync.WaitGroup
	wg.Add(2)
	for i := 0; i < 2; i++ {
		go func() {
			defer wg.Done()
			muA.Lock()
			n++
			muA.Unlock()
		}()
	}
	wg.Wait()
	muA.Lock()
	defer muA.Unlock()
	return n
}

// atomicCounter is atomic on both sides.
func atomicCounter() int64 {
	var n int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); atomic.AddInt64(&n, 1) }()
	go func() { defer wg.Done(); atomic.AddInt64(&n, 1) }()
	wg.Wait()
	return atomic.LoadInt64(&n)
}

// frozenInput is written only before the launches and read after the wait.
func frozenInput(xs []float64) float64 {
	scale := 2.0
	out := make([]float64, len(xs))
	var wg sync.WaitGroup
	for i := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = scale * xs[i] // partitioned element writes
		}()
	}
	wg.Wait()
	return out[0]
}

// singleOwnerResult is touched by exactly one goroutine and read only
// after the channel barrier publishes it.
func singleOwnerResult() int {
	x := 0
	done := make(chan struct{})
	go func() {
		x = 7
		close(done)
	}()
	<-done
	return x
}

// handOff transfers ownership of the buffer over a channel.
func handOff() []float64 {
	buf := make([]float64, 4)
	ch := make(chan []float64, 1)
	go func() {
		buf[0] = 1
		ch <- buf
	}()
	return <-ch
}
