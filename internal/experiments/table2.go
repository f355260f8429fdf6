package experiments

import (
	"fmt"

	"extdict/internal/cluster"
	"extdict/internal/dataset"
	"extdict/internal/perf"
	"extdict/internal/tune"
)

// Table2Row is one dataset's preprocessing overhead.
type Table2Row struct {
	Dataset   string
	TuningMS  float64 // wall time of the prefix-based L search
	TransfMS  float64 // wall time of coding the rest and checking ε
	OverallMS float64
	ChosenL   int
	Alpha     float64
	// RelError is the tuned transform's relative error on the full data,
	// which TuneAndFit guarantees is within ε.
	RelError float64
	// ResidentBytes is the Eq. 4 capacity prediction for iterating the
	// tuned transform on the target platform: the worst rank's peak
	// resident set (perf.Estimate.MemoryWordsPerRank, in bytes).
	ResidentBytes float64
}

// Table2Result reproduces Table II: the one-time preprocessing overhead
// (tuning + transformation) per dataset, run with the paper's 64-core
// configuration (8 nodes × 8 cores) as the tuning target. Wall times are
// measured on the host; the paper's observation that Cancer Cells costs
// more than the larger Light Field (denser geometry ⇒ more OMP iterations)
// must reproduce.
type Table2Result struct {
	Platform cluster.Platform
	Rows     []Table2Row
}

// Table2 measures preprocessing for every preset.
func Table2(cfg Config) (*Table2Result, error) {
	cfg = cfg.filled()
	plat := cluster.NewPlatform(8, 8)
	res := &Table2Result{Platform: plat}
	for _, name := range dataset.PresetNames() {
		u, err := loadPreset(name, cfg)
		if err != nil {
			return nil, err
		}
		fit, tr, err := tune.TuneAndFit(u.A, plat, tune.Config{
			Epsilon: 0.1, Workers: cfg.Workers, Seed: cfg.Seed,
		})
		if err != nil {
			return nil, err
		}
		est := perf.PredictTransformed(u.A.Rows, u.A.Cols, fit.L(), fit.C.NNZ(), plat)
		res.Rows = append(res.Rows, Table2Row{
			Dataset:       name,
			TuningMS:      float64(tr.TuneWall.Microseconds()) / 1000,
			TransfMS:      float64(tr.FitWall.Microseconds()) / 1000,
			OverallMS:     float64((tr.TuneWall + tr.FitWall).Microseconds()) / 1000,
			ChosenL:       fit.L(),
			Alpha:         fit.Alpha(),
			RelError:      fit.RelError(u.A),
			ResidentBytes: 8 * est.MemoryWordsPerRank,
		})
	}
	return res, nil
}

// Table renders the overhead rows.
func (r *Table2Result) Table() string {
	tw := &tableWriter{header: []string{"dataset", "tuning(ms)", "transform(ms)", "overall(ms)", "L*", "alpha", "error"}}
	for _, row := range r.Rows {
		tw.addRow(row.Dataset,
			fmt.Sprintf("%.1f", row.TuningMS),
			fmt.Sprintf("%.1f", row.TransfMS),
			fmt.Sprintf("%.1f", row.OverallMS),
			fmt.Sprintf("%d", row.ChosenL),
			fmt.Sprintf("%.3f", row.Alpha),
			fmt.Sprintf("%.4f", row.RelError),
		)
	}
	return fmt.Sprintf("Table II — preprocessing overhead (tuning + ExD) targeting %s\n%s",
		r.Platform.Topology, tw.String())
}
