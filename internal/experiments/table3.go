package experiments

import (
	"fmt"

	"extdict/internal/cluster"
	"extdict/internal/dataset"
	"extdict/internal/rng"
	"extdict/internal/transform"
	"extdict/internal/tune"
)

// Table3Row is one dataset's memory comparison, in float64 words (the paper
// reports MB; words are the platform-independent unit — multiply by 8 for
// bytes).
type Table3Row struct {
	Dataset  string
	Original int // M·N words for the raw data matrix
	// Baselines maps method name → storage words of its (D, C).
	Baselines map[string]int
	// ExtDict maps processor count P → storage words with L tuned for the
	// memory objective on that platform (the paper's L=1..64 columns).
	ExtDict map[int]int
	// ExtDictL records the tuned L per P.
	ExtDictL map[int]int
}

// Table3Result reproduces Table III: memory footprints of the transformed
// representations at ε = 0.1. Every baseline produces one platform-oblivious
// answer; ExtDict's column varies with the platform it is tuned for.
type Table3Result struct {
	Epsilon float64
	Rows    []Table3Row
}

// Table3 measures every preset.
func Table3(cfg Config) (*Table3Result, error) {
	cfg = cfg.filled()
	const eps = 0.1
	res := &Table3Result{Epsilon: eps}
	for _, name := range dataset.PresetNames() {
		u, err := loadPreset(name, cfg)
		if err != nil {
			return nil, err
		}
		row := Table3Row{
			Dataset:   name,
			Original:  u.A.Rows * u.A.Cols,
			Baselines: map[string]int{},
			ExtDict:   map[int]int{},
			ExtDictL:  map[int]int{},
		}
		for _, m := range []transform.Method{transform.RCSS{}, transform.OASIS{}, transform.RankMap{Workers: cfg.Workers}} {
			fit, err := m.Fit(u.A, eps, rng.New(cfg.Seed+hashName(m.Name())))
			if err != nil {
				return nil, err
			}
			row.Baselines[m.Name()] = fit.MemoryWords()
		}
		for _, plat := range cluster.PaperPlatforms() {
			tr, _, err := tune.TuneAndFit(u.A, plat, tune.Config{
				Epsilon: eps, Workers: cfg.Workers, Seed: cfg.Seed,
			})
			if err != nil {
				return nil, err
			}
			p := plat.Topology.P()
			row.ExtDict[p] = tr.MemoryWords()
			row.ExtDictL[p] = tr.L()
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the memory comparison with improvement factors over the
// original data.
func (r *Table3Result) Table() string {
	header := []string{"dataset", "original", "RCSS", "oASIS", "RankMap"}
	for _, plat := range cluster.PaperPlatforms() {
		header = append(header, fmt.Sprintf("ExtDict P=%d", plat.Topology.P()))
	}
	tw := &tableWriter{header: header}
	for _, row := range r.Rows {
		cells := []string{
			row.Dataset,
			fmt.Sprintf("%d", row.Original),
			fmt.Sprintf("%d", row.Baselines["RCSS"]),
			fmt.Sprintf("%d", row.Baselines["oASIS"]),
			fmt.Sprintf("%d", row.Baselines["RankMap"]),
		}
		for _, plat := range cluster.PaperPlatforms() {
			p := plat.Topology.P()
			cells = append(cells, fmt.Sprintf("%d (L=%d)", row.ExtDict[p], row.ExtDictL[p]))
		}
		tw.addRow(cells...)
	}
	return fmt.Sprintf("Table III — storage in float64 words per transform (eps=%.2f)\n%s",
		r.Epsilon, tw.String())
}
