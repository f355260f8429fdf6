package tune

import (
	"math"
	"slices"
	"testing"

	"extdict/internal/cluster"
	"extdict/internal/dataset"
	"extdict/internal/exd"
	"extdict/internal/mat"
	"extdict/internal/perf"
	"extdict/internal/rng"
)

func unionData(t testing.TB, m, n int, ks []int, seed uint64) *mat.Dense {
	t.Helper()
	u, err := dataset.GenerateUnion(dataset.UnionParams{M: m, N: n, Ks: ks}, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return u.A
}

func TestGeometricGrid(t *testing.T) {
	g := GeometricGrid(10, 1000, 5)
	if g[0] != 10 || g[len(g)-1] != 1000 {
		t.Fatalf("grid endpoints %v", g)
	}
	for i := 1; i < len(g); i++ {
		if g[i] <= g[i-1] {
			t.Fatalf("grid not increasing: %v", g)
		}
	}
	if got := GeometricGrid(5, 5, 4); len(got) != 1 || got[0] != 5 {
		t.Fatalf("degenerate grid %v", got)
	}
	if got := GeometricGrid(0, 3, 2); got[0] != 1 {
		t.Fatalf("lo clamp failed: %v", got)
	}
}

func TestTuneValidatesEpsilon(t *testing.T) {
	a := unionData(t, 16, 64, []int{3}, 1)
	plat := cluster.NewPlatform(1, 1)
	if _, err := Tune(a, plat, Config{Epsilon: 0}); err == nil {
		t.Fatal("epsilon 0 accepted")
	}
	if _, err := Tune(a, plat, Config{Epsilon: 1}); err == nil {
		t.Fatal("epsilon 1 accepted")
	}
}

func TestTuneFindsFeasibleMinimum(t *testing.T) {
	a := unionData(t, 32, 512, []int{4, 5}, 2)
	plat := cluster.NewPlatform(2, 4)
	res, err := Tune(a, plat, Config{Epsilon: 0.1, Workers: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Best.Feasible {
		t.Fatal("best candidate infeasible")
	}
	best := res.Best.Estimate.Cost(perf.Runtime)
	for _, c := range res.Candidates {
		if c.Feasible && c.Estimate.Cost(perf.Runtime) < best-1e-12 {
			t.Fatalf("candidate L=%d beats selected L=%d", c.L, res.Best.L)
		}
	}
	if res.Rounds < 1 || len(res.SubsetSizes) != res.Rounds {
		t.Fatalf("round bookkeeping wrong: %+v", res)
	}
}

func TestTuneRespectsObjective(t *testing.T) {
	// Memory objective must never pick a candidate with a higher memory
	// estimate than any feasible alternative.
	a := unionData(t, 32, 512, []int{4, 5, 6}, 4)
	plat := cluster.NewPlatform(8, 8)
	res, err := Tune(a, plat, Config{Epsilon: 0.1, Objective: perf.Memory, Workers: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Candidates {
		if c.Feasible && c.Estimate.MemoryWordsPerRank < res.Best.Estimate.MemoryWordsPerRank-1e-9 {
			t.Fatalf("memory objective ignored: L=%d cheaper than L=%d", c.L, res.Best.L)
		}
	}
}

func TestTuneSubsetAlphaApproximatesFullAlpha(t *testing.T) {
	// The paper's §VII estimator: α from a subset tracks α from the full
	// data (Fig. 6). The probe codes a prefix against exd.Fit's dictionary,
	// drawn from all of A, so the estimate holds even on a prefix smaller
	// than 2L, where a dictionary sampled from the subset would swallow it.
	a := unionData(t, 32, 800, []int{4, 4, 5}, 6)
	const l, eps = 200, 0.1

	full, err := exd.Fit(a, exd.Params{L: l, Epsilon: eps, Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	var c Candidate
	probeL(a, l, rng.New(8).Perm(800), []int{150}, Config{Epsilon: eps, Workers: 2, Seed: 7}, &c)
	fa, sa := full.Alpha(), c.Alpha
	if math.Abs(fa-sa)/fa > 0.30 {
		t.Fatalf("prefix alpha %v far from full alpha %v", sa, fa)
	}
}

func TestTuneInfeasibleGridErrors(t *testing.T) {
	// A grid capped far below L_min must be rejected, not silently chosen.
	a := unionData(t, 48, 300, []int{8, 8, 8}, 9)
	plat := cluster.NewPlatform(1, 1)
	_, err := Tune(a, plat, Config{
		Epsilon: 0.01, LGrid: []int{2, 3}, Workers: 2, Seed: 10,
	})
	if err == nil {
		t.Fatal("infeasible grid accepted")
	}
}

func TestTunePlatformChangesChoice(t *testing.T) {
	// The whole point of platform awareness: a communication-heavy
	// platform should not pick a larger L than a cheap-communication one
	// when the objective is runtime (larger L ⇒ more words up to M).
	a := unionData(t, 64, 1024, []int{3, 3, 4, 4}, 11)
	grid := []int{96, 160, 256, 420, 700, 1024}
	cheap := cluster.NewPlatform(1, 4) // intra-node words
	dear := cluster.NewPlatform(8, 8)  // inter-node words, P=64

	r1, err := Tune(a, cheap, Config{Epsilon: 0.1, LGrid: grid, Workers: 2, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Tune(a, dear, Config{Epsilon: 0.1, LGrid: grid, Workers: 2, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	// Not a strict inequality in general; assert the tuner is sensitive to
	// the platform (different or equal picks allowed) and both feasible.
	if !r1.Best.Feasible || !r2.Best.Feasible {
		t.Fatal("infeasible picks")
	}
	// At minimum the predicted cost differs across platforms.
	if r1.Best.Estimate.Time == r2.Best.Estimate.Time {
		t.Fatal("platform had no effect on predictions")
	}
}

// escalating returns data, platform and config whose pick meets ε on its
// probe prefix but not on the full data: the 16-column prefix misses the
// outliers that a 22-atom dictionary cannot code, so TuneAndFit must step
// up to the pruned L = 300 (≥ M, so every column codes exactly).
func escalating(t testing.TB) (*mat.Dense, cluster.Platform, Config) {
	t.Helper()
	u, err := dataset.GenerateUnion(dataset.UnionParams{
		M: 32, N: 600, Ks: []int{4, 5, 6}, OutlierFrac: 0.02,
	}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return u.A, cluster.NewPlatform(1, 1), Config{
		Epsilon: 0.1, LGrid: []int{22, 300}, InitialSubset: 16, MaxRounds: 1, Seed: 3,
	}
}

// sameTransform fails t unless got is want bit for bit: dictionary draw,
// coefficient structure and values, OMP work and parameters.
func sameTransform(t *testing.T, got, want *exd.Transform) {
	t.Helper()
	if !slices.Equal(got.DictIdx, want.DictIdx) || got.OMPIters != want.OMPIters || got.Params != want.Params {
		t.Fatalf("transform L=%d differs from exd.Fit: dict %v vs %v, iters %d vs %d, params %+v vs %+v",
			got.L(), got.DictIdx, want.DictIdx, got.OMPIters, want.OMPIters, got.Params, want.Params)
	}
	if !slices.Equal(got.D.Data, want.D.Data) || !slices.Equal(got.C.ColPtr, want.C.ColPtr) ||
		!slices.Equal(got.C.RowIdx, want.C.RowIdx) {
		t.Fatalf("transform L=%d: D or the structure of C differs from exd.Fit", got.L())
	}
	for k, v := range got.C.Val {
		if math.Float64bits(v) != math.Float64bits(want.C.Val[k]) {
			t.Fatalf("transform L=%d: C value %d is %v, exd.Fit's %v", got.L(), k, v, want.C.Val[k])
		}
	}
}

// TestTuneAndFitIsExdFit pins the handover's contract: TuneAndFit returns
// exactly exd.Fit at the size it reports, whether it finishes the pick's
// probe or escalates, at any worker count — and finishing the probe codes
// every column the prefix never saw once and no prefix column again.
func TestTuneAndFitIsExdFit(t *testing.T) {
	type input struct {
		a         *mat.Dense
		plat      cluster.Platform
		cfg       Config
		escalates bool
	}
	var ins []input
	for seed := uint64(21); seed <= 23; seed++ {
		ins = append(ins, input{unionData(t, 32, 640, []int{4, 5, 6}, seed),
			cluster.NewPlatform(2, 4), Config{Epsilon: 0.1, Seed: seed}, false})
	}
	a, plat, cfg := escalating(t)
	ins = append(ins, input{a, plat, cfg, true})
	for i, in := range ins {
		for _, workers := range []int{1, 2} {
			cfg := in.cfg
			cfg.Workers = workers
			tr, res, err := TuneAndFit(in.a, in.plat, cfg)
			if err != nil {
				t.Fatal(err)
			}
			// A broken handover would hide behind an escalation to a plain
			// exd.Fit, so each input must take the path it is meant to.
			if (res.Escalations > 0) != in.escalates {
				t.Fatalf("input %d: %d escalations, want escalation %v", i, res.Escalations, in.escalates)
			}
			want, err := exd.Fit(in.a, exd.Params{L: tr.L(), Epsilon: cfg.Epsilon, Workers: workers, Seed: cfg.Seed})
			if err != nil {
				t.Fatal(err)
			}
			sameTransform(t, tr, want)

			// Mark the probe's slots, finish, and see which were coded.
			picked, pr, err := scan(in.a, in.plat, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			for k, j := range pr.perm {
				if k < pr.seen {
					pr.codes[j].Iters = -1
					continue
				}
				if pr.codes[j].Idx != nil || pr.codes[j].Iters != 0 {
					t.Fatalf("input %d: column %d coded outside the probe prefix", i, j)
				}
				pr.codes[j].Iters = -2
			}
			pr.finish(in.a, exd.Params{L: picked.Best.L, Epsilon: cfg.Epsilon, Workers: workers, Seed: cfg.Seed})
			for k, j := range pr.perm {
				switch it := pr.codes[j].Iters; {
				case k < pr.seen && it != -1:
					t.Fatalf("input %d: finishing recoded prefix column %d", i, j)
				case k >= pr.seen && it < 0:
					t.Fatalf("input %d: finishing skipped column %d", i, j)
				}
			}
		}
	}
}

func TestTuneAndFitReportsEscalations(t *testing.T) {
	a, plat, cfg := escalating(t)
	first, err := Tune(a, plat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, res, err := TuneAndFit(a, plat, cfg)
	if err != nil {
		t.Fatal(err)
	}
	order := fitOrder(first, a.Cols)
	if res.Escalations < 1 || res.Escalations >= len(order) || tr.L() != order[res.Escalations] {
		t.Fatalf("pick L=%d returned L=%d after %d escalations; order %v",
			first.Best.L, tr.L(), res.Escalations, order)
	}
	if res.Best.L != tr.L() || !res.Best.Feasible {
		t.Fatalf("Best %+v does not describe the returned L=%d", res.Best, tr.L())
	}
	if !res.Candidates[len(res.Candidates)-1].Pruned {
		t.Fatal("the escalation target should be a pruned candidate")
	}
	if got := tr.RelError(a); got > cfg.Epsilon*(1+1e-9) {
		t.Fatalf("escalated transform error %v", got)
	}
}

func TestPrunedScanIsExhaustiveArgmin(t *testing.T) {
	a := unionData(t, 32, 640, []int{4, 5, 6}, 24)
	pruned := 0
	for _, plat := range []cluster.Platform{cluster.NewPlatform(1, 1), cluster.NewPlatform(8, 8)} {
		for _, obj := range []perf.Objective{perf.Runtime, perf.Energy, perf.Memory} {
			cfg := Config{Epsilon: 0.1, Objective: obj, Workers: 2, Seed: 25}
			got, _, err := scan(a, plat, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			all, _, err := scan(a, plat, cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			argmin := -1
			for i, c := range all.Candidates {
				if c.Feasible && (argmin < 0 || c.Estimate.Cost(obj) < all.Candidates[argmin].Estimate.Cost(obj)) {
					argmin = i
				}
			}
			if got.Best != all.Candidates[argmin] {
				t.Fatalf("%s on %s: pruned pick L=%d, exhaustive argmin L=%d",
					obj, plat.Topology, got.Best.L, all.Candidates[argmin].L)
			}
			for i, c := range got.Candidates {
				if c.Pruned && c.Estimate.Cost(obj) < got.Best.Estimate.Cost(obj) {
					t.Fatalf("%s on %s: pruned L=%d, whose bound is below the pick's cost", obj, plat.Topology, c.L)
				}
				if c.Pruned {
					pruned++
				} else if c != all.Candidates[i] {
					t.Fatalf("%s on %s: probe of L=%d depends on pruning", obj, plat.Topology, c.L)
				}
			}
		}
	}
	if pruned == 0 {
		t.Fatal("nothing was pruned, so the test compared nothing")
	}
}

func TestTuneAndFit(t *testing.T) {
	a := unionData(t, 32, 400, []int{4, 5}, 13)
	plat := cluster.NewPlatform(1, 4)
	tr, res, err := TuneAndFit(a, plat, Config{Epsilon: 0.1, Workers: 2, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	if tr.L() != res.Best.L {
		t.Fatalf("fit used L=%d, tuner chose %d", tr.L(), res.Best.L)
	}
	if got := tr.RelError(a); got > 0.1+1e-9 {
		t.Fatalf("final transform error %v", got)
	}
}

func TestTuneDeterministic(t *testing.T) {
	// Same seed, same scan, whatever the worker count: every candidate's
	// estimates and the prefix sizes repeat exactly.
	a := unionData(t, 24, 300, []int{3, 4}, 15)
	plat := cluster.NewPlatform(2, 2)
	r1, err := Tune(a, plat, Config{Epsilon: 0.1, Workers: 1, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Tune(a, plat, Config{Epsilon: 0.1, Workers: 2, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Best != r2.Best || !slices.Equal(r1.Candidates, r2.Candidates) || !slices.Equal(r1.SubsetSizes, r2.SubsetSizes) {
		t.Fatal("tuner not deterministic")
	}
}

// BenchmarkTuneAndFit times ExtDict's whole preprocessing — the scan, the
// handover, the rest of the coding and the ε check — on the cancercell
// preset at a CI-sized scale (N = 2048) for the paper's 8×8 platform,
// cycling through four seeds.
func BenchmarkTuneAndFit(b *testing.B) {
	p, err := dataset.Preset("cancercell", 0.125)
	if err != nil {
		b.Fatal(err)
	}
	u, err := dataset.GenerateUnion(p, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	plat := cluster.NewPlatform(8, 8)
	for i := 0; i < b.N; i++ {
		if _, _, err := TuneAndFit(u.A, plat, Config{Epsilon: 0.1, Workers: mat.Workers, Seed: uint64(1 + i%4)}); err != nil {
			b.Fatal(err)
		}
	}
}
