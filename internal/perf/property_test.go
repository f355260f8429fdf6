package perf

import (
	"testing"
	"testing/quick"

	"extdict/internal/cluster"
	"extdict/internal/rng"
)

// Property tests of the closed-form cost model: the qualitative shapes the
// tuner depends on must hold over random problem shapes and platforms.

func randomShape(r *rng.RNG) (m, n, l, nnz int, plat cluster.Platform) {
	m = 16 + r.Intn(512)
	n = 256 + r.Intn(1<<16)
	l = 8 + r.Intn(2*m)
	alpha := 1 + r.Intn(20)
	nnz = alpha * n
	plats := cluster.PaperPlatforms()
	plat = plats[r.Intn(len(plats))]
	return
}

func TestCostsPositive(t *testing.T) {
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed))
		m, n, l, nnz, plat := randomShape(r)
		e := PredictTransformed(m, n, l, nnz, plat)
		return e.Time > 0 && e.EnergyJ > 0 && e.MemoryWordsPerRank > 0 &&
			e.FlopsCritical > 0 && e.PathWords > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMonotoneInNNZ(t *testing.T) {
	// More stored coefficients never make an iteration cheaper.
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) + 1)
		m, n, l, nnz, plat := randomShape(r)
		a := PredictTransformed(m, n, l, nnz, plat)
		b := PredictTransformed(m, n, l, nnz+n, plat)
		return b.Time >= a.Time && b.EnergyJ >= a.EnergyJ &&
			b.MemoryWordsPerRank >= a.MemoryWordsPerRank
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMonotoneInL(t *testing.T) {
	// For fixed nnz, a bigger dictionary costs more time (flops up, words
	// up until L=M, flat after).
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) + 2)
		m, n, l, nnz, plat := randomShape(r)
		a := PredictTransformed(m, n, l, nnz, plat)
		b := PredictTransformed(m, n, l+l/2+1, nnz, plat)
		return b.Time >= a.Time
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMoreRanksNeverMoreCriticalFlops(t *testing.T) {
	// Growing P can only shrink the per-rank share of the sparse work;
	// the dictionary term is P-independent.
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) + 3)
		m, n, l, nnz, _ := randomShape(r)
		small := PredictTransformed(m, n, l, nnz, cluster.NewPlatform(1, 2))
		big := PredictTransformed(m, n, l, nnz, cluster.NewPlatform(1, 16))
		return big.FlopsCritical <= small.FlopsCritical
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCommunicationCapAtM(t *testing.T) {
	// Words on the wire never exceed 2·M regardless of L (Case 2 replaces
	// the L-vector exchange with an M-vector exchange).
	f := func(seed uint16) bool {
		r := rng.New(uint64(seed) + 4)
		m, n, l, nnz, plat := randomShape(r)
		e := PredictTransformed(m, n, l, nnz, plat)
		return e.PathWords <= float64(2*m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSGDWordsIndependentOfM(t *testing.T) {
	plat := cluster.NewPlatform(2, 4)
	a := PredictSGD(100, 1000, 64, plat)
	b := PredictSGD(100, 5000, 64, plat)
	if a.PathWords != b.PathWords {
		t.Fatal("SGD words must depend only on the batch size")
	}
}

func TestCostMonotoneForPruning(t *testing.T) {
	// The tuner's scan stops at the first L whose nnz = 0 bound meets the
	// best estimate so far. That is exact only if every objective's cost is
	// non-decreasing in nnz and strictly increasing in L, on every
	// platform; step L by one so the L = M case switch is crossed too.
	for _, plat := range cluster.PaperPlatforms() {
		for _, obj := range []Objective{Runtime, Energy, Memory} {
			f := func(seed uint16) bool {
				r := rng.New(uint64(seed) + 5)
				m, n, l, nnz, _ := randomShape(r)
				l = max(1, l-m+r.Intn(2*m)) // straddle L = M as often as not
				base := PredictTransformed(m, n, l, nnz, plat).Cost(obj)
				denser := PredictTransformed(m, n, l, nnz+1+r.Intn(n), plat).Cost(obj)
				wider := PredictTransformed(m, n, l+1, nnz, plat).Cost(obj)
				return denser >= base && wider > base
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
				t.Fatalf("%s on %s: %v", obj, plat.Topology, err)
			}
		}
	}
}
