package experiments

import (
	"strings"
	"testing"
)

// smallCfg keeps test runs fast; trends must hold at any scale.
func smallCfg() Config { return Config{Scale: 0.12, Seed: 42, Workers: 2} }

func TestGeometricHelper(t *testing.T) {
	g := geometric(10, 100, 4)
	if g[0] != 10 || g[len(g)-1] != 100 {
		t.Fatalf("grid %v", g)
	}
	if got := geometric(7, 7, 5); len(got) != 1 {
		t.Fatalf("degenerate %v", got)
	}
}

func TestTableWriterAlignment(t *testing.T) {
	skipInShort(t)
	tw := &tableWriter{header: []string{"a", "long-header"}}
	tw.addRow("xxxxx", "1")
	s := tw.String()
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines %d", len(lines))
	}
	if len(lines[0]) != len(lines[1]) {
		t.Fatal("separator misaligned")
	}
}

func TestFig4CurveShapes(t *testing.T) {
	skipInShort(t)
	r, err := Fig4(smallCfg(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 4 {
		t.Fatalf("too few points: %d", len(r.Points))
	}
	// α(L) decreasing (weakly, allowing noise) beyond L_min; error
	// criterion met for all L ≥ L_min.
	first, last := r.Points[0], r.Points[len(r.Points)-1]
	if last.AlphaMean > first.AlphaMean {
		t.Fatalf("alpha rose from %v to %v", first.AlphaMean, last.AlphaMean)
	}
	// L_min marks where an *orthogonal* basis meets the criterion; greedy
	// OMP needs some slack beyond the knee, so require the criterion from
	// 2·L_min on and a error decrease across the sweep.
	for _, p := range r.Points {
		if p.L >= 2*r.LMin && p.RelError > r.Epsilon+1e-6 {
			t.Fatalf("error %v at L=%d ≥ 2·L_min=%d", p.RelError, p.L, 2*r.LMin)
		}
	}
	if first.RelError < last.RelError {
		t.Fatalf("error increased with L: %v -> %v", first.RelError, last.RelError)
	}
	if !strings.Contains(r.Table(), "Fig.4") {
		t.Fatal("table header missing")
	}
}

func TestFig5Tunability(t *testing.T) {
	skipInShort(t)
	r, err := Fig5(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Datasets) != 3 {
		t.Fatalf("datasets %d", len(r.Datasets))
	}
	for _, ds := range r.Datasets {
		if len(ds.Series) != len(Fig5Epsilons) {
			t.Fatalf("%s: %d series", ds.Name, len(ds.Series))
		}
		// Looser ε ⇒ sparser codes at every L (series are ordered by ε
		// ascending, so alpha must be non-increasing across series).
		for i := range ds.Ls {
			for s := 1; s < len(ds.Series); s++ {
				if ds.Series[s].Alpha[i] > ds.Series[s-1].Alpha[i]*1.05 {
					t.Fatalf("%s: eps=%v denser than eps=%v at L=%d",
						ds.Name, ds.Series[s].Epsilon, ds.Series[s-1].Epsilon, ds.Ls[i])
				}
			}
		}
		// Larger L ⇒ sparser codes for the tightest ε curve.
		tight := ds.Series[0].Alpha
		if tight[len(tight)-1] > tight[0]*1.1 {
			t.Fatalf("%s: alpha not decreasing in L", ds.Name)
		}
	}
	if !strings.Contains(r.Table(), "Fig.5") {
		t.Fatal("table header missing")
	}
}

func TestFig6SubsetConvergence(t *testing.T) {
	skipInShort(t)
	r, err := Fig6(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for di, ds := range r.Datasets {
		if len(ds.Curves) < 3 {
			t.Fatalf("%s: %d curves", ds.Name, len(ds.Curves))
		}
		// Subset sizes strictly increasing, last = full data.
		for i := 1; i < len(ds.Curves); i++ {
			if ds.Curves[i].SubsetSize <= ds.Curves[i-1].SubsetSize {
				t.Fatalf("%s: sizes not increasing", ds.Name)
			}
		}
		if ds.Curves[len(ds.Curves)-1].SubsetSize != ds.N {
			t.Fatalf("%s: last curve not full data", ds.Name)
		}
		// The second-to-last subset must already track the full curve
		// closely (convergence of the estimator).
		near := ds.Curves[len(ds.Curves)-2]
		full := ds.Curves[len(ds.Curves)-1]
		for i := range full.Alpha {
			if full.Alpha[i] == 0 {
				continue
			}
			if abs(near.Alpha[i]-full.Alpha[i])/full.Alpha[i] > 0.35 {
				t.Fatalf("%s: 75%% subset off by >35%% at L=%d", ds.Name, ds.Ls[i])
			}
		}
		_ = di
	}
	if !strings.Contains(r.Table(), "Fig.6") {
		t.Fatal("table header missing")
	}
}

func TestTable2Overheads(t *testing.T) {
	skipInShort(t)
	r, err := Table2(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.OverallMS <= 0 || row.ChosenL <= 0 || row.Alpha <= 0 {
			t.Fatalf("degenerate row %+v", row)
		}
		if row.OverallMS < row.TransfMS {
			t.Fatal("overall below transform time")
		}
	}
	if !strings.Contains(r.Table(), "Table II") {
		t.Fatal("table header missing")
	}
}

func TestTable2RowsMeetEpsilon(t *testing.T) {
	// Table II reports the transform TuneAndFit validated, escalations
	// included, so every row meets the tolerance on the full data — also
	// at the metrics golden's scale and seed, where a bare fit at the
	// tuner's first pick for lightfield read 0.219.
	for _, cfg := range []Config{{Scale: 0.05, Seed: 1, Workers: 2}, smallCfg()} {
		r, err := Table2(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.RelError > 0.1*(1+1e-9) {
				t.Fatalf("scale %v seed %d, %s: L=%d transform error %.4f exceeds eps 0.1",
					cfg.Scale, cfg.Seed, row.Dataset, row.ChosenL, row.RelError)
			}
		}
	}
}

func TestFig7ExtDictWins(t *testing.T) {
	skipInShort(t)
	r, err := Fig7(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range r.Datasets {
		if len(ds.Cells) != 4 {
			t.Fatalf("%s: %d cells", ds.Name, len(ds.Cells))
		}
		inRegime := 0
		for _, c := range ds.Cells {
			if !c.InRegime {
				// Outside the paper's N/P ≫ L regime (only reachable at
				// reduced test scale) the serial M·L term dominates and no
				// winner claim applies.
				continue
			}
			inRegime++
			// The paper's claim: in regime, ExD yields better or equal
			// runtime vs every alternative. Against RankMap the paper
			// itself reports parity on some datasets (ExD then tunes to
			// L≈L_min), so that comparison gets a wider tolerance band.
			for _, m := range Fig7Methods[:4] {
				slack := 0.9
				if m == "RankMap" {
					slack = 0.8
				}
				if c.Improvement[m] < slack {
					t.Fatalf("%s on %s: ExtDict slower than %s (%.2fx)",
						ds.Name, c.Platform, m, c.Improvement[m])
				}
			}
			// And the win over the dense baseline must be substantial on
			// multi-rank platforms, in both time and energy (Eq. 2/3 share
			// the flop and word counts).
			if c.Platform.P() > 1 && c.Improvement["AᵀA"] < 1.5 {
				t.Fatalf("%s on %s: only %.2fx over dense",
					ds.Name, c.Platform, c.Improvement["AᵀA"])
			}
			if c.EnergyImprovement["AᵀA"] < 1 {
				t.Fatalf("%s on %s: energy regression %.2fx vs dense",
					ds.Name, c.Platform, c.EnergyImprovement["AᵀA"])
			}
		}
		if inRegime < 2 {
			t.Fatalf("%s: only %d in-regime cells — test scale too small to exercise the claim", ds.Name, inRegime)
		}
	}
	if !strings.Contains(r.Table(), "Fig.7") {
		t.Fatal("table header missing")
	}
}

func TestTable3MemoryOrdering(t *testing.T) {
	skipInShort(t)
	r, err := Table3(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		// Sparse methods must beat the dense-C baselines; every transform
		// must beat the original data.
		for name, w := range row.Baselines {
			if w >= row.Original {
				t.Fatalf("%s: %s uses %d ≥ original %d", row.Dataset, name, w, row.Original)
			}
		}
		for p, w := range row.ExtDict {
			if w >= row.Original {
				t.Fatalf("%s: ExtDict P=%d uses %d ≥ original %d", row.Dataset, p, w, row.Original)
			}
		}
		// ExtDict (tuned, sparse C) must not lose to the dense-C RCSS.
		for _, w := range row.ExtDict {
			if w > row.Baselines["RCSS"] {
				t.Fatalf("%s: ExtDict %d worse than RCSS %d", row.Dataset, w, row.Baselines["RCSS"])
			}
		}
	}
	if !strings.Contains(r.Table(), "Table III") {
		t.Fatal("table header missing")
	}
}

func TestFig8ModelTracksSimulator(t *testing.T) {
	skipInShort(t)
	r, err := Fig8(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if got := r.MaxRelError(); got > 0.35 {
		t.Fatalf("model diverges from simulator by %.0f%%", 100*got)
	}
	if !strings.Contains(r.Table(), "Fig.8") {
		t.Fatal("table header missing")
	}
}

func TestFig9ExtDictBeatsSGD(t *testing.T) {
	skipInShort(t)
	r, err := Fig9(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Apps) != 2 {
		t.Fatalf("apps %d", len(r.Apps))
	}
	for _, app := range r.Apps {
		wins := 0
		for _, c := range app.Cells {
			if c.ExtDictSec <= 0 || c.SGDSec <= 0 {
				t.Fatalf("%s: degenerate times %+v", app.Name, c)
			}
			// A cell is an ExtDict win either outright on time or because
			// SGD exhausted its budget without matching ExtDict's solution
			// quality — the paper's "sub-optimal, non-guaranteed, slow
			// convergence" failure mode; its recorded time is then only a
			// lower bound.
			if c.Improvement > 1 || !c.SGDReached {
				wins++
			}
		}
		// ExtDict must win on most platforms (the paper reports up to
		// 2-4x; tiny test scales can flip an individual cell).
		if wins < len(app.Cells)-1 {
			t.Fatalf("%s: ExtDict won only %d/%d cells", app.Name, wins, len(app.Cells))
		}
	}
	if !strings.Contains(r.Table(), "Fig.9") {
		t.Fatal("table header missing")
	}
}

func TestFig10ExtDictSpeedsUpPCA(t *testing.T) {
	skipInShort(t)
	r, err := Fig10(smallCfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range r.Datasets {
		inRegime := 0
		for _, c := range ds.Cells {
			if !c.InRegime {
				continue
			}
			inRegime++
			if c.Improvement < 1 {
				t.Fatalf("%s on %s: ExD slower (%.2fx)", ds.Name, c.Platform, c.Improvement)
			}
		}
		if inRegime < 2 {
			t.Fatalf("%s: only %d in-regime cells", ds.Name, inRegime)
		}
	}
	if !strings.Contains(r.Table(), "Fig.10") {
		t.Fatal("table header missing")
	}
}

func TestFig11ErrorTradeoff(t *testing.T) {
	skipInShort(t)
	r, err := Fig11(smallCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range r.Apps {
		if len(app.Points) != len(Fig11Epsilons) {
			t.Fatalf("%s: %d points", app.Name, len(app.Points))
		}
		// Reconstruction must be meaningful at tight ε…
		if app.Points[0].RelError > 0.5 {
			t.Fatalf("%s: rel error %v at eps=0.01", app.Name, app.Points[0].RelError)
		}
		// …and the tightest ε must not be worse than the loosest.
		first, last := app.Points[0], app.Points[len(app.Points)-1]
		if first.RelError > last.RelError*1.5 {
			t.Fatalf("%s: error not improving with tighter eps (%v vs %v)",
				app.Name, first.RelError, last.RelError)
		}
	}
	if !strings.Contains(r.Table(), "Fig.11") {
		t.Fatal("table header missing")
	}
}

func TestFig12PCALearningError(t *testing.T) {
	skipInShort(t)
	r, err := Fig12(smallCfg(), 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range r.Datasets {
		// Learning error small at the tightest ε and bounded throughout.
		if ds.Points[0].LearningError > 0.05 {
			t.Fatalf("%s: learning error %v at eps=0.01", ds.Name, ds.Points[0].LearningError)
		}
		for _, p := range ds.Points {
			if p.LearningError > 3*p.Epsilon+0.02 {
				t.Fatalf("%s: learning error %v at eps=%v", ds.Name, p.LearningError, p.Epsilon)
			}
		}
	}
	if !strings.Contains(r.Table(), "Fig.12") {
		t.Fatal("table header missing")
	}
}

// skipInShort marks the full experiment drivers as long tests: under -short
// (the CI race pass) only the fast helpers run, because the race detector's
// order-of-magnitude slowdown puts the drivers past any reasonable timeout.
// The plain test phase still runs every driver.
func skipInShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("experiment driver skipped in -short mode")
	}
}
