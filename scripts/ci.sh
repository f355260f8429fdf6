#!/usr/bin/env bash
# ci.sh — the one-command gate for this repository.
#
# Runs, in order: build, go vet, gofmt (fails on any unformatted file), the
# project invariant linter (cmd/extdict-lint: a check that -fix would not
# change any file, then one pass of all analyzers that writes the SARIF
# report and the schedule, roofline and capacity reports diffed against
# their goldens), the check that every non-test function is reached by a
# program (scripts/unreached.sh), the full test suite with an aggregate
# coverage floor, the race detector over every internal package, the
# GOMAXPROCS determinism matrix, the perfbench module's vet, tests and lint,
# and the bench and serving smoke gates. Everything must pass for a change
# to land.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go build"
go build ./...

echo "== no tracked SARIF artifacts"
# SARIF reports are per-run build artifacts (.gitignore: *.sarif); a
# committed one goes stale instantly and shadows the CI upload.
if git ls-files -- '*.sarif' | grep -q .; then
    echo "these SARIF reports are tracked but must not be:" >&2
    git ls-files -- '*.sarif' >&2
    exit 1
fi

echo "== go vet"
go vet ./...

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: the following files need formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== extdict-lint -fix (must be a no-op)"
# Mirror the gofmt check for suggested fixes: apply -fix to a scratch copy of
# the tree and fail if any file would change. The copy keeps local working
# trees unmutated on failure.
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
lint="$tmpdir/extdict-lint"
go build -o "$lint" ./cmd/extdict-lint
cp -a . "$tmpdir/tree"
rm -rf "$tmpdir/tree/.git"
"$lint" -C "$tmpdir/tree" -fix ./... >/dev/null || true
if ! diff -rq -x .git "$tmpdir/tree" . >/dev/null; then
    echo "extdict-lint: -fix would change these files; run 'go run ./cmd/extdict-lint -fix ./...' and commit:" >&2
    diff -rq -x .git "$tmpdir/tree" . | sed 's/^/  /' >&2
    exit 1
fi

echo "== extdict-lint (the whole suite over the module, the SARIF report and the three static reports)"
# One pass of every analyzer over every package. It holds internal/lint to
# the documentation, error-handling and panic-attribution invariants it
# enforces on the rest of the module; it keeps the tree concurrency-clean
# (sharedstate, lockorder, detorder), memory-model clean (an unproven
# AddBytes claim would poison the roofline's denominators) and
# capacity-model clean (an unproven AddResident claim would make the
# capacity verdicts claims about nothing). The same pass writes the SARIF
# report and the schedule, roofline and capacity reports diffed below.
"$lint" -sarif extdict-lint.sarif -trace "$tmpdir/trace.json" \
    -roofline "$tmpdir/roofline.json" -capacity "$tmpdir/capacity.json" ./...

echo "== SARIF report carries every analyzer's rule"
# The uploaded report must advertise the whole suite: a run narrowed with
# -checks would drop rules, and with them the guarantees above.
for rule in $("$lint" -list | awk '{print $1}'); do
    if ! grep -q "\"id\": \"$rule\"" extdict-lint.sarif; then
        echo "extdict-lint.sarif lacks rule metadata for $rule" >&2
        exit 1
    fi
done

echo "== static schedule, roofline and capacity reports match their goldens"
# Each report is a reviewed artifact: drift in an operator's reduce/
# broadcast schedule, a kernel contract, the platform balance or an
# allocation contract must be deliberate.
for report in trace:schedule roofline:roofline capacity:capacity; do
    flag=${report%%:*}
    golden=internal/lint/testdata/${report##*:}.golden.json
    if ! diff -u "$golden" "$tmpdir/$flag.json"; then
        echo "extdict-lint: the -$flag report drifted from $golden; if intended, regenerate with" >&2
        echo "  go run ./cmd/extdict-lint -$flag $golden ./..." >&2
        exit 1
    fi
done

echo "== no function that no program reaches"
# scripts/unreached.sh lists the non-test functions that neither the
# commands, perfbench nor the root package's tests and Examples reach; a
# name that must stay goes on its keep-list, with its caller in DESIGN.md.
unreached=$(bash scripts/unreached.sh)
if [ -n "$unreached" ]; then
    echo "no program reaches these functions; delete them, move them into tests, or keep-list them:" >&2
    echo "$unreached" >&2
    exit 1
fi

echo "== go test (with coverage floor)"
# The floor is the aggregate statement coverage of ./internal/... measured
# when the gate was introduced; it may only be raised.
coverage_floor=82.9
go test -coverprofile="$tmpdir/cover.out" -coverpkg=./internal/... ./...
coverage=$(go tool cover -func="$tmpdir/cover.out" | awk '/^total:/ {sub(/%/, "", $3); print $3}')
echo "aggregate internal coverage: ${coverage}%"
if awk -v c="$coverage" -v f="$coverage_floor" 'BEGIN {exit !(c < f)}'; then
    echo "coverage ${coverage}% is below the ${coverage_floor}% floor" >&2
    exit 1
fi

echo "== go test -race (all internal packages)"
go test -race -short -count=1 ./internal/...

echo "== determinism matrix (GOMAXPROCS = 1, 2, NumCPU)"
# The determinism list lives in scripts/determinism.sh, which the CI
# workflow's determinism job runs too: the list's tests must hold under
# serial, dual, and fully parallel scheduling.
ncpu=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN)
for gmp in 1 2 "$ncpu"; do
    echo "-- GOMAXPROCS=$gmp"
    GOMAXPROCS=$gmp bash scripts/determinism.sh
done

echo "== perfbench (the repository benchmark must build, pass its tests and lint clean)"
# perfbench is a module of its own, so the go build/vet/test steps above
# never compile it: a change to a serve, omp or tune API could break the
# benchmark unseen. Its tests run every workload at a small scale.
go -C perfbench vet ./...
go -C perfbench test -count=1 ./...
"$lint" ./perfbench/...

echo "== bench smoke (kernel, coding, preprocessing, solver and wire-codec benchmarks must run)"
# One iteration of every kernel, coding-loop, ε-check, preprocessing,
# solver-step and wire-codec microbenchmark: catches benchmarks that panic
# or no longer compile without paying the full measurement cost.
go test -run '^$' -bench . -benchtime 1x -count=1 ./internal/mat/ ./internal/omp/ ./internal/exd/ ./internal/tune/ ./internal/dist/ ./internal/sparse/ ./internal/serve/ ./internal/solver/ >/dev/null

echo "== serve smoke (fit once, then serve the transform; clean shutdown)"
# The serving binary end to end on the file `extdict fit -out` writes: load
# the fitted transform's dictionary, bind a free loopback port, answer a
# health probe and one encode round-trip, then drain cleanly on SIGTERM.
# The in-process variants of this path (listener lifecycle under a leak
# watchdog, the -race soak) already ran with the test suite above; this
# gate proves the shipped binaries wire them up.
go build -o "$tmpdir/extdict" ./cmd/extdict
"$tmpdir/extdict" gen -preset salinas -scale 0.05 -out "$tmpdir/data.edm" >/dev/null
"$tmpdir/extdict" fit -in "$tmpdir/data.edm" -eps 0.1 -out "$tmpdir/m.exd" >/dev/null
go build -o "$tmpdir/extdict-serve" ./cmd/extdict-serve
"$tmpdir/extdict-serve" -dict smoke="$tmpdir/m.exd" -addr 127.0.0.1:0 \
    >"$tmpdir/serve.log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^serving .* on \([^ ]*\) .*/\1/p' "$tmpdir/serve.log")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "extdict-serve never reported its listen address:" >&2
    cat "$tmpdir/serve.log" >&2
    exit 1
fi
curl -fsS "http://$addr/v1/healthz" | grep -q '"status":"ok"'
m=$(sed -n 's/^loaded smoke: \([0-9]*\)x.*/\1/p' "$tmpdir/serve.log")
signal=$(seq 1 "$m" | awk '{printf "%s%.3f", (NR > 1 ? "," : ""), $1 / 100}')
curl -fsS -X POST -d "{\"dict\":\"smoke\",\"signal\":[$signal]}" \
    "http://$addr/v1/encode" | grep -q '"idx"'
curl -fsS "http://$addr/v1/statsz" | grep -q '"encoded":1'
kill -TERM "$serve_pid"
if ! wait "$serve_pid"; then
    echo "extdict-serve did not exit cleanly:" >&2
    cat "$tmpdir/serve.log" >&2
    exit 1
fi
grep -q 'draining' "$tmpdir/serve.log"

echo "== serve loadtest (seeded clients, bit-identity against serial encode)"
# The deterministic closed-loop harness at a small fixed seed: 8 concurrent
# clients against a live listener, every response compared bit for bit with
# a serial Batch-OMP reference, latency ordering and batch accounting
# checked. Zero mismatches is the gate.
go test -count=1 -run TestLoadAgainstLiveServer ./internal/serve/loadtest/

echo "CI gate passed."
