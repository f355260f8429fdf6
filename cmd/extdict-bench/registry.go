package main

import (
	"fmt"

	"extdict/internal/experiments"
)

// artifact is one experiment's rendered output: the human-readable table
// plus its numbers as metrics. Metrics carry every deterministic number the
// artifact reports (α, L, errors, storage, modeled times, speedups), which
// TestExperimentMetricsGolden pins, so a change that moves one fails go
// test.
type artifact struct {
	Table   string
	Metrics map[string]float64
}

// runner executes one experiment and renders its artifact.
type runner func(experiments.Config) (artifact, error)

// boolMetric encodes a flag as a metric: 1 for true, 0 for false.
func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// methodKey names a transform method in metric keys.
var methodKey = map[string]string{
	"AᵀA": "ata", "RCSS": "rcss", "oASIS": "oasis", "RankMap": "rankmap", "ExtDict": "exd",
}

// registry maps experiment ids to drivers.
func registry(trials, components int) map[string]runner {
	return map[string]runner{
		"fig4": func(c experiments.Config) (artifact, error) {
			r, err := experiments.Fig4(c, trials)
			if err != nil {
				return artifact{}, err
			}
			m := map[string]float64{
				"l_min":  float64(r.LMin),
				"points": float64(len(r.Points)),
			}
			for _, p := range r.Points {
				m[fmt.Sprintf("alpha_L%d", p.L)] = p.AlphaMean
				m[fmt.Sprintf("alpha_std_L%d", p.L)] = p.AlphaStd
				m[fmt.Sprintf("rel_error_L%d", p.L)] = p.RelError
			}
			return artifact{Table: r.Table(), Metrics: m}, nil
		},
		"fig5": func(c experiments.Config) (artifact, error) {
			r, err := experiments.Fig5(c)
			if err != nil {
				return artifact{}, err
			}
			m := map[string]float64{}
			for _, ds := range r.Datasets {
				for _, s := range ds.Series {
					for i, l := range ds.Ls {
						m[fmt.Sprintf("alpha_%s_eps%g_L%d", ds.Name, s.Epsilon, l)] = s.Alpha[i]
					}
				}
			}
			return artifact{Table: r.Table(), Metrics: m}, nil
		},
		"fig6": func(c experiments.Config) (artifact, error) {
			r, err := experiments.Fig6(c)
			if err != nil {
				return artifact{}, err
			}
			m := map[string]float64{}
			for di, ds := range r.Datasets {
				for _, cv := range ds.Curves {
					for i, l := range ds.Ls {
						m[fmt.Sprintf("alpha_%s_n%d_L%d", ds.Name, cv.SubsetSize, l)] = cv.Alpha[i]
					}
				}
				m["final_discrepancy_"+ds.Name] = r.FinalDiscrepancy(di)
			}
			return artifact{Table: r.Table(), Metrics: m}, nil
		},
		"tab2": func(c experiments.Config) (artifact, error) {
			r, err := experiments.Table2(c)
			if err != nil {
				return artifact{}, err
			}
			m := map[string]float64{}
			for _, row := range r.Rows {
				m["chosen_l_"+row.Dataset] = float64(row.ChosenL)
				m["alpha_"+row.Dataset] = row.Alpha
				m["rel_error_"+row.Dataset] = row.RelError
				m["resident_bytes_"+row.Dataset] = row.ResidentBytes
			}
			return artifact{Table: r.Table(), Metrics: m}, nil
		},
		"fig7": func(c experiments.Config) (artifact, error) {
			r, err := experiments.Fig7(c)
			if err != nil {
				return artifact{}, err
			}
			m := map[string]float64{}
			for _, ds := range r.Datasets {
				for _, cell := range ds.Cells {
					key := fmt.Sprintf("%s_P%d", ds.Name, cell.Platform.P())
					m["chosen_l_"+key] = float64(cell.ChosenL)
					m["in_regime_"+key] = boolMetric(cell.InRegime)
					// The improvement over AᵀA is the headline, keyed
					// without a method.
					m["improvement_"+key] = cell.Improvement["AᵀA"]
					m["energy_improvement_"+key] = cell.EnergyImprovement["AᵀA"]
					for _, meth := range experiments.Fig7Methods {
						mk := methodKey[meth] + "_" + key
						m["iter_s_"+mk] = cell.IterTime[meth]
						m["energy_j_"+mk] = cell.IterEnergy[meth]
						m["resident_"+mk] = float64(cell.Resident[meth])
						if meth != "AᵀA" && meth != "ExtDict" {
							m["improvement_"+mk] = cell.Improvement[meth]
							m["energy_improvement_"+mk] = cell.EnergyImprovement[meth]
						}
					}
				}
			}
			return artifact{Table: r.Table(), Metrics: m}, nil
		},
		"tab3": func(c experiments.Config) (artifact, error) {
			r, err := experiments.Table3(c)
			if err != nil {
				return artifact{}, err
			}
			m := map[string]float64{}
			for _, row := range r.Rows {
				m["words_original_"+row.Dataset] = float64(row.Original)
				for meth, words := range row.Baselines {
					m["words_"+methodKey[meth]+"_"+row.Dataset] = float64(words)
				}
				for p, words := range row.ExtDict {
					key := fmt.Sprintf("%s_P%d", row.Dataset, p)
					m["words_exd_"+key] = float64(words)
					m["chosen_l_"+key] = float64(row.ExtDictL[p])
				}
			}
			return artifact{Table: r.Table(), Metrics: m}, nil
		},
		"fig8": func(c experiments.Config) (artifact, error) {
			r, err := experiments.Fig8(c)
			if err != nil {
				return artifact{}, err
			}
			m := map[string]float64{"max_rel_error": r.MaxRelError()}
			for _, ds := range r.Datasets {
				for _, p := range ds.Points {
					key := fmt.Sprintf("%s_L%d_P%d", ds.Name, p.L, p.P)
					m["predicted_us_"+key] = p.PredictedTime * 1e6
					m["measured_us_"+key] = p.MeasuredTime * 1e6
				}
			}
			return artifact{Table: r.Table(), Metrics: m}, nil
		},
		"fig9": func(c experiments.Config) (artifact, error) {
			r, err := experiments.Fig9(c)
			if err != nil {
				return artifact{}, err
			}
			m := map[string]float64{}
			for _, app := range r.Apps {
				for _, cell := range app.Cells {
					key := fmt.Sprintf("%s_P%d", app.Name, cell.Platform.P())
					m["extdict_s_"+key] = cell.ExtDictSec
					m["extdict_iters_"+key] = float64(cell.ExtDictIters)
					m["sgd_s_"+key] = cell.SGDSec
					m["sgd_iters_"+key] = float64(cell.SGDIters)
					m["sgd_reached_"+key] = boolMetric(cell.SGDReached)
					m["improvement_"+key] = cell.Improvement
				}
			}
			return artifact{Table: r.Table(), Metrics: m}, nil
		},
		"fig10": func(c experiments.Config) (artifact, error) {
			r, err := experiments.Fig10(c, components)
			if err != nil {
				return artifact{}, err
			}
			m := map[string]float64{}
			for _, ds := range r.Datasets {
				for _, cell := range ds.Cells {
					key := fmt.Sprintf("%s_P%d", ds.Name, cell.Platform.P())
					m["ata_s_"+key] = cell.BaselineSec
					m["ata_iters_"+key] = float64(cell.BaselineIters)
					m["extdict_s_"+key] = cell.ExtDictSec
					m["extdict_iters_"+key] = float64(cell.ExtDictIters)
					m["improvement_"+key] = cell.Improvement
					m["chosen_l_"+key] = float64(cell.ChosenL)
				}
			}
			return artifact{Table: r.Table(), Metrics: m}, nil
		},
		"fig11": func(c experiments.Config) (artifact, error) {
			r, err := experiments.Fig11(c)
			if err != nil {
				return artifact{}, err
			}
			m := map[string]float64{}
			for _, app := range r.Apps {
				for _, p := range app.Points {
					key := fmt.Sprintf("%s_eps%g", app.Name, p.Epsilon)
					m["rel_error_"+key] = p.RelError
					m["psnr_db_"+key] = p.PSNRdB
					m["iters_"+key] = float64(p.Iters)
				}
			}
			return artifact{Table: r.Table(), Metrics: m}, nil
		},
		"fig12": func(c experiments.Config) (artifact, error) {
			r, err := experiments.Fig12(c, components)
			if err != nil {
				return artifact{}, err
			}
			m := map[string]float64{}
			for _, ds := range r.Datasets {
				for _, p := range ds.Points {
					m[fmt.Sprintf("learning_error_%s_eps%g", ds.Name, p.Epsilon)] = p.LearningError
				}
			}
			return artifact{Table: r.Table(), Metrics: m}, nil
		},
	}
}
