package lint

import (
	"sort"
	"strings"
)

// CapacityRow is one solver/dist entry point of the static capacity report:
// the proven per-rank peak-resident polynomial and its value at one
// documented reference shape, classified against the platform's per-rank
// RAM. The polynomial is the sum of the entry point's AddResident claim
// regions including guarded ones — rank 0 carries every guard in Case 1,
// so the sum is the worst rank's footprint, which is what capacity must
// cover.
type CapacityRow struct {
	// Func is the rank entry point ("ExDGram.applyCase1").
	Func string `json:"func"`
	// Config names the reference shape the polynomial is evaluated at.
	Config string `json:"config"`
	// Resident is the derived peak-resident polynomial in the paper's
	// variables.
	Resident string `json:"resident"`
	// BytesPerRank is the polynomial evaluated at the config shape.
	BytesPerRank int64 `json:"bytesPerRank"`
	// Verdict classifies the footprint against the capacity: "fits" when
	// it is at or under the per-rank RAM, "needs-out-of-core" above it.
	Verdict string `json:"verdict"`
}

// CapacityReport is the full static admission artifact behind
// extdict-lint -capacity: the per-rank RAM threshold, the documented
// reference shapes, and one row per (entry point, shape).
type CapacityReport struct {
	// CapacityBytes is the per-rank RAM the verdicts classify against
	// (cluster.Platform.MemBytesCapacity of the default cost model).
	CapacityBytes int64 `json:"capacityBytes"`
	// Configs maps each reference shape name to its variable binding.
	Configs map[string]map[string]int64 `json:"configs"`
	// Entries is sorted by function name, then config name.
	Entries []CapacityRow `json:"entries"`
}

// CapacityReference returns the documented reference shapes the capacity
// polynomials are evaluated at — the evaluation configurations of Fig. 4,
// Table 2, and Fig. 7 (dataset shape from internal/dataset presets, L and
// nnz(C) from the experiments' transform settings, P from the platform each
// figure runs on), plus ROADMAP item 5's out-of-core target: 5 billion
// stored coefficients over a 100M-column corpus, the shape whose verdict
// motivates the out-of-core schedule. Bindings are per rank: nnz and the
// column window are the n/P share of a uniform partition.
func CapacityReference() map[string]map[string]int64 {
	shape := func(m, n, l, nnz, p, batch int64) map[string]int64 {
		return map[string]int64{
			"m":             m,
			"l":             l,
			"n":             n,
			"a.Rows":        m,
			"B":             batch,
			"NNZ(blocks[])": nnz / p,
			"ranges[][0]":   0,
			"ranges[][1]":   n / p,
		}
	}
	return map[string]map[string]int64{
		"fig4-salinas":    shape(96, 16384, 192, 262144, 1, 64),
		"tab2-cancercell": shape(128, 16384, 256, 524288, 4, 64),
		"fig7-lightfield": shape(192, 24576, 256, 245760, 64, 64),
		"roadmap5-5Bnnz":  shape(512, 100_000_000, 2048, 5_000_000_000, 8, 64),
	}
}

// Capacity derives the static capacity rows of one package: for every rank
// entry point with at least one proven AddResident region it sums the claim
// regions into the worst-rank peak-resident polynomial and evaluates it at
// every reference shape. Delegating wrappers carry no claims and are
// omitted. Verdicts are filled in by NewCapacityReport, which knows the
// platform capacity.
func Capacity(pkg *Package) []CapacityRow {
	if !inAnyPkg(pkg.ImportPath, "extdict/internal/dist", "extdict/internal/solver") {
		return nil
	}
	if pkg.TypesInfo == nil {
		return nil
	}
	refs := CapacityReference()
	names := make([]string, 0, len(refs))
	for name := range refs {
		names = append(names, name)
	}
	sort.Strings(names)
	var rows []CapacityRow
	for _, fc := range deriveResident(pkg) {
		terms := claimTerms(fc.terms)
		if len(terms) == 0 {
			continue
		}
		total := symExpr(symConst(0))
		for _, t := range terms {
			total = symAdd{total, t.derived}
		}
		p, ok := normalize(total, fc.subst)
		if !ok {
			continue
		}
		for _, name := range names {
			v, ok := evalSym(total, fc.subst, refs[name])
			if !ok {
				continue
			}
			rows = append(rows, CapacityRow{
				Func:         fc.fn,
				Config:       name,
				Resident:     p.render(),
				BytesPerRank: v,
			})
		}
	}
	sortCapacityRows(rows)
	return rows
}

// NewCapacityReport assembles the report: rows sorted, each classified
// against the per-rank RAM — "fits" at or under capacity,
// "needs-out-of-core" above it.
func NewCapacityReport(capacityBytes int64, rows []CapacityRow) CapacityReport {
	sortCapacityRows(rows)
	if rows == nil {
		rows = []CapacityRow{}
	}
	for i := range rows {
		if rows[i].BytesPerRank <= capacityBytes {
			rows[i].Verdict = "fits"
		} else {
			rows[i].Verdict = "needs-out-of-core"
		}
	}
	return CapacityReport{
		CapacityBytes: capacityBytes,
		Configs:       CapacityReference(),
		Entries:       rows,
	}
}

func sortCapacityRows(rows []CapacityRow) {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Func != rows[j].Func {
			return rows[i].Func < rows[j].Func
		}
		return strings.Compare(rows[i].Config, rows[j].Config) < 0
	})
}
