package mat

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"extdict/internal/rng"
)

// TestParallelChunksCoversExactlyOnce is the partition-arithmetic audit: for
// every (n, w) in the grid, every index in [0, n) must be visited exactly
// once, chunk ids must be distinct, and chunk sizes must be balanced (differ
// by at most one).
func TestParallelChunksCoversExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 255, 256, 257, 1000} {
		for _, w := range []int{1, 2, 3, 7, 8} {
			visits := make([]int32, n)
			var mu sync.Mutex
			sizes := map[int]int{}
			ParallelChunks(n, w, func(c, lo, hi int) {
				mu.Lock()
				for i := lo; i < hi; i++ {
					visits[i]++
				}
				if _, dup := sizes[c]; dup {
					t.Errorf("n=%d w=%d: chunk id %d ran twice", n, w, c)
				}
				sizes[c] = hi - lo
				mu.Unlock()
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("n=%d w=%d: index %d visited %d times", n, w, i, v)
				}
			}
			minSz, maxSz := math.MaxInt, 0
			for _, s := range sizes {
				minSz, maxSz = min(minSz, s), max(maxSz, s)
			}
			if n > 0 && maxSz-minSz > 1 {
				t.Fatalf("n=%d w=%d: unbalanced chunks %v", n, w, sizes)
			}
		}
	}
}

// refParMulVecT is ParMulVecT's definition written serially: at least
// parallelThreshold rows are summed in blocks of parallelThreshold rows,
// each block into its own partial with MulVecT, and the partials are added
// in block order; fewer rows are MulVecT.
func refParMulVecT(m *Dense, x []float64) []float64 {
	if m.Rows < parallelThreshold {
		return m.MulVecT(x, nil)
	}
	y := make([]float64, m.Cols)
	for lo := 0; lo < m.Rows; lo += parallelThreshold {
		hi := min(lo+parallelThreshold, m.Rows)
		blk := &Dense{Rows: hi - lo, Cols: m.Cols, Stride: m.Stride, Data: m.Data[lo*m.Stride:]}
		p := blk.MulVecT(x[lo:hi], nil)
		for j := range y {
			y[j] += p[j]
		}
	}
	return y
}

func TestParMulVecTMatchesSerial(t *testing.T) {
	// ParMulVecT's blocks do not follow Workers, so every worker count, 1
	// included, gives the serial block fold bit for bit. 813 rows are three
	// full blocks and a short last one; 255 rows take MulVecT. Plain
	// normals make a reordered merge show in the last bits.
	defer func(w int) { Workers = w }(Workers)
	r := rng.New(11)
	for _, specials := range []bool{false, true} {
		for _, rows := range []int{255, 256, 813} {
			for _, m := range pinMatrices(r, rows, 37, specials) {
				x := make([]float64, rows)
				pinFill(r, x, specials)
				want := refParMulVecT(m, x)
				for _, w := range []int{1, 2, 3, 7} {
					Workers = w
					y := make([]float64, m.Cols)
					pinFill(r, y, true) // outputs start out holding garbage
					sameBits(t, fmt.Sprintf("%dx%d stride %d specials=%v workers=%d: ParMulVecT", rows, m.Cols, m.Stride, specials, w),
						m.ParMulVecT(x, y), want)
				}
			}
		}
	}
}

func TestParATAMatchesSerialBitExact(t *testing.T) {
	r := rng.New(12)
	a := randomDense(r, 300, 80)
	want := ATA(a)

	defer func(w int) { Workers = w }(Workers)
	// Every G element is owned by one chunk and accumulated in the serial
	// order, so ParATA is bit-identical to ATA at ANY worker count.
	for _, w := range []int{1, 2, 3, 7, 8} {
		Workers = w
		got := ParATA(a)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("Workers=%d: ParATA not bit-exact at flat index %d", w, i)
			}
		}
	}
}

func TestParMulVecBitExact(t *testing.T) {
	r := rng.New(13)
	a := randomDense(r, 333, 50)
	x := make([]float64, 50)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	want := a.MulVec(x, nil)
	defer func(w int) { Workers = w }(Workers)
	for _, w := range []int{1, 2, 5} {
		Workers = w
		got := a.ParMulVec(x, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("Workers=%d: ParMulVec not bit-exact at %d", w, i)
			}
		}
	}
}

// TestPoolBudgetNeverExceeded hammers every parallel kernel from many
// concurrent callers and asserts the peak number of simultaneously executing
// pool workers never exceeds the global budget — the no-oversubscription
// guarantee when P ranks each call parallel kernels.
func TestPoolBudgetNeverExceeded(t *testing.T) {
	defer func(w int) { Workers = w }(Workers)
	Workers = 8
	r := rng.New(14)
	a := randomDense(r, 512, 64)
	x := make([]float64, 64)
	xt := make([]float64, 512)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	for i := range xt {
		xt[i] = r.NormFloat64()
	}

	ResetPoolPeak()
	var wg sync.WaitGroup
	for p := 0; p < 8; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				a.ParMulVec(x, nil)
				a.ParMulVecT(xt, nil)
				ParATA(a)
			}
		}()
	}
	wg.Wait()

	if peak, budget := PoolPeakWorkers(), PoolBudget(); peak > budget {
		t.Fatalf("pool peak %d exceeds budget %d", peak, budget)
	}
}

// TestParallelChunksNestedDoesNotDeadlock submits work whose body itself
// calls parallel kernels; the non-blocking pool must degrade to inline
// execution instead of deadlocking.
func TestParallelChunksNestedDoesNotDeadlock(t *testing.T) {
	defer func(w int) { Workers = w }(Workers)
	Workers = 4
	r := rng.New(15)
	a := randomDense(r, 300, 30)
	x := make([]float64, 30)
	want := a.MulVec(x, nil)
	ParallelChunks(16, 16, func(_, lo, hi int) {
		got := a.ParMulVec(x, nil)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("nested ParMulVec mismatch at %d", i)
				return
			}
		}
	})
}

func TestPipelineConsumesInOrderWithinWindow(t *testing.T) {
	// Every item is produced once and consumed once, in order, after its
	// produce returned; no item is produced ahead or more past the last
	// one consumed, so slot i mod ahead is never overwritten early. Every
	// third item yields, so the helpers and the caller interleave.
	defer func(w int) { Workers = w }(Workers)
	for _, n := range []int{0, 1, 2, 7, 61} {
		for _, w := range []int{1, 2, 3, 8} {
			for _, ahead := range []int{1, 2, 3, 8} {
				slots := make([]int, max(1, ahead))
				produced := make([]int32, n)
				var consumed sync.Mutex
				nConsumed := 0
				var got []int
				Pipeline(n, w, ahead, func(i int) {
					consumed.Lock()
					if ahead >= 2 && w > 1 && i >= nConsumed+ahead {
						t.Errorf("n=%d w=%d ahead=%d: item %d produced with %d consumed", n, w, ahead, i, nConsumed)
					}
					consumed.Unlock()
					if i%3 == 0 {
						runtime.Gosched()
					}
					slots[i%len(slots)] = 3 * i
					produced[i]++
				}, func(i int) {
					if produced[i] != 1 {
						t.Errorf("n=%d w=%d ahead=%d: item %d consumed after %d produces", n, w, ahead, i, produced[i])
					}
					got = append(got, slots[i%len(slots)])
					consumed.Lock()
					nConsumed++
					consumed.Unlock()
				})
				if len(got) != n {
					t.Fatalf("n=%d w=%d ahead=%d: %d items consumed", n, w, ahead, len(got))
				}
				for i, v := range got {
					if v != 3*i {
						t.Fatalf("n=%d w=%d ahead=%d: item %d read %d from its slot, want %d", n, w, ahead, i, v, 3*i)
					}
				}
			}
		}
	}
}
