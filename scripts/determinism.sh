#!/usr/bin/env bash
# determinism.sh — the determinism list, run once at the caller's GOMAXPROCS.
#
#   GOMAXPROCS=1 bash scripts/determinism.sh
#
# The Par-kernel equivalence tests, the 24-seed chaos replay, the tuner's
# handover (TuneAndFit's transform is exd.Fit's, bit for bit), the
# storage-order rewrites (MulTo rows are MulVecT's, the panel coder's codes
# are Encode's, the pipelined RelError is the serial loop's, the parallel
# Assemble is the Builder's, the one-pass coding loop is the one it
# replaced), the root package's Example walkthroughs (their checked output)
# and the paper artifacts' metrics must hold under serial, dual and fully
# parallel scheduling. The chaos digest test and the experiment
# metrics golden compare every run against the same committed files
# (internal/cluster/chaos/testdata/replay.digest,
# cmd/extdict-bench/testdata/metrics.golden.json), so runs at different
# settings cannot silently diverge from one another or from the recorded
# baseline. scripts/ci.sh runs this list at GOMAXPROCS = 1, 2 and NumCPU, and
# the CI workflow's determinism job at each of its matrix settings, so the
# two always run the same tests.
set -euo pipefail
cd "$(dirname "$0")/.."

go test -count=1 -run 'TestPar|TestMulToRowsMatchMulVecT|TestPipeline|TestAxpyRowsTo|TestForwardNext' ./internal/mat/
go test -count=1 -run 'TestEncodeColumnsMatchesPerColumn|TestEncodeColumnsAtInstallments|TestEncodeDegenerateDictionaries|TestCode|FuzzCodeMatchesReference' ./internal/omp/
go test -count=1 -run 'TestBuildColumnsMatchesBuilder' ./internal/sparse/
go test -count=1 -run 'TestRelErrorMatchesSerialLoop' ./internal/exd/
go test -count=1 ./internal/cluster/chaos/
go test -count=1 -run 'TestTuneAndFitIsExdFit|TestTuneDeterministic' ./internal/tune/
go test -count=1 -run 'Example' .
go test -count=1 -run 'TestExperimentMetricsGolden' ./cmd/extdict-bench/
