package lint

import (
	"math"
	"sort"
)

// RooflineRow is one accounted kernel region of a rank function in the
// static roofline report: the derived flop and byte polynomials (the
// costmodel and memmodel sides of the same region) and the arithmetic
// intensity — flops ÷ bytes — evaluated at the reference shape.
type RooflineRow struct {
	// Func is the rank function the region belongs to ("ExDGram.applyCase1").
	Func string `json:"func"`
	// Region is the ordinal of the accounted region within the function.
	Region int `json:"region"`
	// Guard is the condition the region runs under ("" at top level).
	Guard string `json:"guard,omitempty"`
	// Flops and Bytes are the derived polynomials in the paper's variables.
	Flops string `json:"flops"`
	Bytes string `json:"bytes"`
	// Intensity is flops ÷ bytes at the reference shape, rounded to 1e-4.
	Intensity float64 `json:"intensity"`
	// Bound classifies the region against the machine balance:
	// "bandwidth" below the ridge, "compute" at or above it.
	Bound string `json:"bound"`
}

// RooflineReport is the full static roofline artifact behind
// extdict-lint -roofline: the platform ridge point, the reference shape
// the intensities are evaluated at, and one row per accounted region.
type RooflineReport struct {
	// MachineBalance is the platform ridge point in flops per byte
	// (cluster.Platform.MachineBalance of the default cost model).
	MachineBalance float64 `json:"machineBalance"`
	// Reference is the shape binding the intensities are evaluated at.
	Reference map[string]int64 `json:"reference"`
	// Kernels is sorted by function name, then region ordinal.
	Kernels []RooflineRow `json:"kernels"`
}

// RooflineReference returns the documented reference shape the roofline
// intensities are evaluated at: a mid-sized paper instance — M=512 signal
// rows, L=128 dictionary atoms, a 256-column rank window holding 8192
// stored coefficients, SGD batches of 64. Intensity ratios vary
// only weakly with shape (both polynomials are dominated by the same
// leading term), so one documented point suffices to classify every kernel.
func RooflineReference() map[string]int64 {
	return map[string]int64{
		"m":             512,
		"l":             128,
		"NNZ(blocks[])": 8192,
		"ranges[][0]":   0,
		"ranges[][1]":   256,
		"len(batch)":    64,
	}
}

// Roofline derives the static roofline rows of one package: for every rank
// function it pairs the costmodel flop terms with the memmodel byte terms
// region by region (each accounted region closes with an AddFlops and an
// AddBytes claim, in that order, so the claim-bearing terms align) and
// evaluates the arithmetic intensity at the reference shape. Functions
// whose kernels stream no bytes are omitted. Bound classification is
// filled in by NewRooflineReport, which knows the platform ridge.
func Roofline(pkg *Package) []RooflineRow {
	if !inAnyPkg(pkg.ImportPath, "extdict/internal/dist", "extdict/internal/solver") {
		return nil
	}
	if pkg.TypesInfo == nil {
		return nil
	}
	ref := RooflineReference()
	costs := deriveCosts(pkg)
	bytes := deriveBytes(pkg)
	byFn := make(map[string]funcCost, len(bytes))
	for _, b := range bytes {
		byFn[b.fn] = b
	}
	var rows []RooflineRow
	for _, fc := range costs {
		bc, ok := byFn[fc.fn]
		if !ok {
			continue
		}
		ft := claimTerms(fc.terms)
		bt := claimTerms(bc.terms)
		if len(ft) == 0 || len(ft) != len(bt) {
			continue
		}
		for i := range ft {
			row := RooflineRow{Func: fc.fn, Region: i, Guard: ft[i].guard}
			pf, okF := normalize(ft[i].derived, fc.subst)
			pb, okB := normalize(bt[i].derived, bc.subst)
			if !okF || !okB {
				continue
			}
			if len(pb) == 0 {
				continue // no kernel traffic in this region
			}
			row.Flops = pf.render()
			row.Bytes = pb.render()
			f, okF := evalSym(ft[i].derived, fc.subst, ref)
			b, okB := evalSym(bt[i].derived, bc.subst, ref)
			if !okF || !okB || b == 0 {
				continue
			}
			row.Intensity = math.Round(float64(f)/float64(b)*1e4) / 1e4
			rows = append(rows, row)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Func != rows[j].Func {
			return rows[i].Func < rows[j].Func
		}
		return rows[i].Region < rows[j].Region
	})
	return rows
}

// claimTerms filters a term list to the checkable claim-closing regions.
func claimTerms(terms []costTerm) []costTerm {
	var out []costTerm
	for _, t := range terms {
		if t.claim != nil && !t.unsupported {
			out = append(out, t)
		}
	}
	return out
}

// NewRooflineReport assembles the report: rows sorted, each classified
// against the ridge point — bandwidth-bound strictly below it, compute-
// bound at or above.
func NewRooflineReport(balance float64, rows []RooflineRow) RooflineReport {
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Func != rows[j].Func {
			return rows[i].Func < rows[j].Func
		}
		return rows[i].Region < rows[j].Region
	})
	if rows == nil {
		rows = []RooflineRow{}
	}
	for i := range rows {
		if rows[i].Intensity >= balance {
			rows[i].Bound = "compute"
		} else {
			rows[i].Bound = "bandwidth"
		}
	}
	return RooflineReport{
		MachineBalance: math.Round(balance*1e6) / 1e6,
		Reference:      RooflineReference(),
		Kernels:        rows,
	}
}
